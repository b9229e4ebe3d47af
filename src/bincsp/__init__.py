"""bincsp: binary encodings of non-binary CSPs with specialized propagation.

The toolkit compiles non-binary constraint problems into the hidden-variable,
dual and double binary encodings, propagates them with structure-exploiting
arc consistency (HAC for the hidden encoding, PW-AC for the dual encoding)
next to generic baselines (GAC-2001, AC-2001), and searches with the
nFC/hFC/dFC forward-checking family and the MAC family. Seedable generators
cover random model B classes, clique-embedded randoms, crosswords,
parity-chain adversarials, frequency-assignment-like and configuration-like
instances; a small CLI runs benchmark matrices to CSV.
"""

from .core import (CapacityError, Constraint, Counters, DomainState, Predicate,
                   Problem, ac1_fixpoint, enumerate_solutions, expand_predicate,
                   is_valid, project, solution_check)
from .encode import (Decomposition, DualVariable, EncodedProblem, build_de,
                     build_double, build_hve, induced_assignment)
from .search import (ALGORITHMS, CONSISTENT, INCONSISTENT, AlgorithmSpec,
                     PropagationResult, SearchResult, ac2001, gac2001, hac,
                     make_engine, prepare_model, pwac, sgac_check, solve)
from .gen import (CrosswordSpec, ModelBParams, gen_clique_embedded,
                  gen_config_like, gen_crossword, gen_model_b,
                  gen_parity_chain, gen_rlfa, tshirt_problem)
from .interchange import emit_instance, emit_report, parse_instance

__all__ = [name for name in dir() if not name.startswith("_")]

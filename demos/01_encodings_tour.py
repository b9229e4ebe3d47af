"""Tour of the three binary encodings on a small arithmetic problem.

Six 0/1 variables and four sum constraints; we build the hidden variable,
dual and double encodings and look at what each one contains.
"""

from bincsp import (Constraint, Predicate, Problem, build_de, build_double,
                    build_hve, enumerate_solutions, project)


def toy():
    dom = [0, 1]
    c1 = Constraint((0, 1, 5), predicate=Predicate("linear", coeffs=(1, 1, 1),
                                                   rel="=", const=1), name="c1")
    c2 = Constraint((0, 2, 3), predicate=Predicate("linear", coeffs=(1, -1, 1),
                                                   rel="=", const=1), name="c2")
    c3 = Constraint((3, 4, 5), predicate=Predicate("linear", coeffs=(1, 1, -1),
                                                   rel=">=", const=1), name="c3")
    c4 = Constraint((1, 4, 5), predicate=Predicate("linear", coeffs=(1, 1, -1),
                                                   rel="=", const=0), name="c4")
    return Problem([f"x{i}" for i in range(1, 7)], [dom] * 6, [c1, c2, c3, c4])


def main():
    p = toy()
    print(f"original problem: {p.n} variables, {len(p.constraints)} constraints")
    print("solutions:", enumerate_solutions(p))

    hve = build_hve(p)
    print(f"\nhidden variable encoding: {hve.variable_count} variables "
          f"({p.n} original + {len(hve.duals)} dual), "
          f"{len(hve.hidden)} hidden constraints")
    for v in hve.duals:
        scope = ", ".join(p.variables[x] for x in v.scope)
        print(f"  v_{v.constraint_index + 1} over ({scope}): D = {v.tuples}")

    de = build_de(p)
    print(f"\ndual encoding: {len(de.duals)} dual variables, "
          f"{len(de.dual_pairs)} dual-dual constraints")
    for pair in de.dual_pairs:
        shared = ", ".join(p.variables[x] for x in pair.shared)
        d1, d2 = de.duals[pair.v1], de.duals[pair.v2]
        compatible = [
            (t1, t2) for t1 in d1.tuples for t2 in d2.tuples
            if project(t1, d1.scope, pair.shared) == project(t2, d2.scope, pair.shared)]
        print(f"  v_c{pair.v1 + 1} ~ v_c{pair.v2 + 1} share {{{shared}}}: "
              f"{len(compatible)} compatible pairs")

    dbl = build_double(p)
    print(f"\ndouble encoding: both constraint sets over the same variables "
          f"({len(dbl.hidden)} hidden + {len(dbl.dual_pairs)} dual-dual)")

    hybrid = build_double(p, encoded_subset=[0, 2])
    print(f"hybrid: constraints {[c.name for c in p.constraints]} with only "
          f"c1 and c3 encoded -> {len(hybrid.duals)} duals, "
          f"residual ids {hybrid.residual_constraints}")


if __name__ == "__main__":
    main()

"""Instance documents and run reports.

An instance document is JSON:

    {"name": "...",
     "variables": [{"name": "x1", "domain": [0, 1]}, ...],
     "constraints": [
        {"scope": ["x1", "x2"], "type": "extension", "tuples": [[0, 1], ...]},
        {"scope": ["x1", "x2", "x3"], "type": "predicate",
         "predicate": {"kind": "linear", "coeffs": [1, 1, 1],
                       "rel": "=", "const": 1}}]}

Tuples are written in domain labels. Domains whose labels are not integers
(such as configuration symbols) are emitted as index ranges with the labels
preserved in a separate "symbols" list. parse(emit(p)) reproduces the
problem up to canonical ordering: variables by declaration, tuples sorted
lexicographically.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .core import Constraint, Predicate, Problem


class InstanceFormatError(ValueError):
    """Schema violation with a JSON-path diagnostic."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def parse_instance(doc: dict) -> Problem:
    if not isinstance(doc, dict):
        raise InstanceFormatError("$", "document must be a JSON object")
    var_entries = doc.get("variables")
    if not isinstance(var_entries, list):
        raise InstanceFormatError("$.variables", "expected a list")
    names, domains, wire_domains = [], [], []
    seen = set()
    for i, entry in enumerate(var_entries):
        path = f"$.variables[{i}]"
        if not isinstance(entry, dict) or "name" not in entry or "domain" not in entry:
            raise InstanceFormatError(path, "expected {name, domain}")
        name = entry["name"]
        if not isinstance(name, str) or not name:
            raise InstanceFormatError(path + ".name", "expected a non-empty string")
        if name in seen:
            raise InstanceFormatError(path + ".name", f"duplicate variable {name!r}")
        seen.add(name)
        domain = entry["domain"]
        if (not isinstance(domain, list) or not domain
                or any(not isinstance(v, int) for v in domain)):
            raise InstanceFormatError(path + ".domain", "expected a non-empty int list")
        if len(set(domain)) != len(domain):
            raise InstanceFormatError(path + ".domain", "duplicate values")
        symbols = entry.get("symbols")
        if symbols is not None:
            if not isinstance(symbols, list) or len(symbols) != len(domain):
                raise InstanceFormatError(path + ".symbols",
                                          "symbols must match the domain length")
        names.append(name)
        domains.append(list(symbols) if symbols is not None else list(domain))
        wire_domains.append(list(domain))
    var_index = {name: i for i, name in enumerate(names)}
    # tuples are written in wire values (the "domain" ints), not symbols
    label_index = [{label: i for i, label in enumerate(dom)} for dom in wire_domains]

    con_entries = doc.get("constraints")
    if not isinstance(con_entries, list):
        raise InstanceFormatError("$.constraints", "expected a list")
    constraints = []
    for j, entry in enumerate(con_entries):
        path = f"$.constraints[{j}]"
        if not isinstance(entry, dict):
            raise InstanceFormatError(path, "expected an object")
        scope_names = entry.get("scope")
        if not isinstance(scope_names, list) or not scope_names:
            raise InstanceFormatError(path + ".scope", "expected a non-empty list")
        scope = []
        for name in scope_names:
            if name not in var_index:
                raise InstanceFormatError(path + ".scope", f"unknown variable {name!r}")
            scope.append(var_index[name])
        if len(set(scope)) != len(scope):
            raise InstanceFormatError(path + ".scope", "duplicate variable in scope")
        ctype = entry.get("type")
        cname = entry.get("name")
        if ctype == "extension":
            tuples = entry.get("tuples")
            if not isinstance(tuples, list):
                raise InstanceFormatError(path + ".tuples", "expected a list of tuples")
            rel = []
            for ti, t in enumerate(tuples):
                if not isinstance(t, list) or len(t) != len(scope):
                    raise InstanceFormatError(f"{path}.tuples[{ti}]",
                                              f"expected arity {len(scope)}")
                row = []
                for pos, label in enumerate(t):
                    x = scope[pos]
                    if label not in label_index[x]:
                        raise InstanceFormatError(
                            f"{path}.tuples[{ti}][{pos}]",
                            f"value {label!r} outside the domain of {names[x]}")
                    row.append(label_index[x][label])
                rel.append(tuple(row))
            constraints.append(Constraint(scope, relation=rel, name=cname))
        elif ctype == "predicate":
            pspec = entry.get("predicate")
            if not isinstance(pspec, dict) or "kind" not in pspec:
                raise InstanceFormatError(path + ".predicate", "expected {kind, ...}")
            try:
                pred = _parse_predicate(pspec, scope_names)
            except (KeyError, TypeError, ValueError) as e:
                raise InstanceFormatError(path + ".predicate", str(e)) from None
            constraints.append(Constraint(scope, predicate=pred, name=cname))
        else:
            raise InstanceFormatError(path + ".type",
                                      "expected 'extension' or 'predicate'")
    return Problem(names, domains, constraints, name=doc.get("name", ""))


def _parse_predicate(pspec: dict, scope_names: list) -> Predicate:
    kind = pspec["kind"]
    if kind == "linear":
        coeffs = pspec["coeffs"]
        if len(coeffs) != len(scope_names):
            raise ValueError("one coefficient per scope variable required")
        return Predicate("linear", coeffs=coeffs, rel=pspec["rel"],
                         const=pspec["const"])
    if kind == "separation":
        return Predicate("separation", s=pspec["s"])
    if kind == "rich_separation":
        subset = pspec["subset"]
        positions = []
        for item in subset:
            if isinstance(item, str):
                if item not in scope_names:
                    raise ValueError(f"subset variable {item!r} not in scope")
                positions.append(scope_names.index(item))
            else:
                positions.append(int(item))
        return Predicate("rich_separation", s=pspec["s"], s2=pspec["s2"],
                         subset=positions)
    if kind == "not_all_equal":
        return Predicate("not_all_equal")
    if kind == "parity_neq":
        return Predicate("parity_neq", pairs=pspec["pairs"])
    raise ValueError(f"unknown predicate kind {kind!r}")


def emit_instance(problem: Problem) -> dict:
    """Canonical document: variables in declaration order, tuples in
    lexicographic index order, labels inline when integral."""
    variables = []
    wire = []  # per-variable wire values: labels when all-int, else indices
    for x in range(problem.n):
        labels = problem.domains[x]
        if all(isinstance(v, int) for v in labels):
            variables.append({"name": problem.variables[x], "domain": list(labels)})
            wire.append(list(labels))
        else:
            variables.append({"name": problem.variables[x],
                              "domain": list(range(len(labels))),
                              "symbols": list(labels)})
            wire.append(list(range(len(labels))))
    constraints = []
    for c in problem.constraints:
        entry = {"scope": [problem.variables[x] for x in c.scope]}
        if c.name:
            entry["name"] = c.name
        if c.relation is not None:
            entry["type"] = "extension"
            entry["tuples"] = [[wire[x][a] for x, a in zip(c.scope, t)]
                               for t in c.relation]
        else:
            entry["type"] = "predicate"
            entry["predicate"] = c.predicate.spec()
        constraints.append(entry)
    doc = {"variables": variables, "constraints": constraints}
    if problem.name:
        doc["name"] = problem.name
    return doc


def load_instance(path: str) -> Problem:
    with open(path, encoding="utf-8") as fh:
        return parse_instance(json.load(fh))


def save_instance(problem: Problem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(emit_instance(problem), fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# run records


CSV_HEADER = ["instance", "algorithm", "encoding", "ordering", "seed", "verdict",
              "nodes", "checks", "microops", "removals", "time_ms", "mem_bytes",
              "error"]


@dataclass
class RunRecord:
    instance: str
    algorithm: str
    encoding: str
    ordering: str
    seed: int
    verdict: str
    nodes: int
    checks: int
    microops: int
    removals: int
    time_ms: int
    mem_bytes: int
    error: str = ""  # "Type: message" of a failed run, empty otherwise

    def row(self) -> list:
        return [getattr(self, col) for col in CSV_HEADER]


def emit_report(records: Sequence[RunRecord], fmt: str = "csv",
                summary: Optional[dict] = None) -> str:
    """Serialize run records; csv rows keep the fixed column order, json
    round-trips the records and optional aggregates."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(rec.row())
        return buf.getvalue()
    if fmt == "json":
        doc = {"records": [asdict(r) for r in records]}
        if summary is not None:
            doc["summary"] = summary
        return json.dumps(doc, indent=1, sort_keys=True) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def parse_report(text: str) -> list:
    """Read a csv or json report back into RunRecord objects."""
    text = text.strip()
    if text.startswith("{"):
        doc = json.loads(text)
        return [RunRecord(**rec) for rec in doc["records"]]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError("unexpected csv header")
    out = []
    for row in rows[1:]:
        kwargs = dict(zip(CSV_HEADER, row))
        for col in ("seed", "nodes", "checks", "microops", "removals",
                    "time_ms", "mem_bytes"):
            kwargs[col] = int(kwargs[col])
        out.append(RunRecord(**kwargs))
    return out

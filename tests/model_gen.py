"""Random desk-scale models for property tests.

Probabilities are dyadic rationals (multiples of 1/16), so products and sums
of small tables are exact in double precision and oracle-vs-solver equalities
hold to the bit, not just to tolerance.  Value entries are integers.

Decision parent sets are kept deliberately small so exhaustive policy
enumeration stays cheap: the first decision observes at most one chance
variable and each later decision adds at most one more on top of what
no-forgetting already forces on it.
"""

from __future__ import annotations

import itertools

import numpy as np

from irid.data import load_bundled
from irid.model import (
    ArrowSpec,
    Constraint,
    Cpt,
    Frame,
    IridModel,
    NodeSpec,
    Policy,
    ValueTable,
    build_model,
    iter_configs,
)

_DENOM = 16


def dyadic_row(rng: np.random.Generator, size: int, allow_zeros: bool = False) -> dict:
    if allow_zeros:
        counts = rng.multinomial(_DENOM, [1.0 / size] * size)
    else:
        counts = 1 + rng.multinomial(_DENOM - size, [1.0 / size] * size)
    return {f"v{i}": counts[i] / _DENOM for i in range(size)}


def random_model(
    seed: int,
    n_chance: tuple[int, int] = (1, 5),
    n_decisions: tuple[int, int] = (1, 2),
    allow_zeros: bool = False,
    objective: str | None = None,
    decision_frame: int = 2,
) -> IridModel:
    rng = np.random.default_rng(seed)
    nc = int(rng.integers(n_chance[0], n_chance[1] + 1))
    nd = int(rng.integers(n_decisions[0], n_decisions[1] + 1))

    chance = [f"C{i}" for i in range(nc)]
    decisions = [f"D{i}" for i in range(nd)]
    layout = chance + decisions
    rng.shuffle(layout)
    # decisions stay in index order along the shuffled layout
    dec_positions = sorted(layout.index(d) for d in decisions)
    for pos, d in zip(dec_positions, decisions):
        layout[pos] = d
    layout.append("V")

    frames = {v: Frame(("v0", "v1")) for v in chance}
    for d in decisions:
        size = decision_frame if nd > 1 else int(rng.integers(2, 4))
        frames[d] = Frame(tuple(f"v{i}" for i in range(size)))

    pos = {v: i for i, v in enumerate(layout)}
    arrows: dict[tuple[str, str], str] = {}

    def add(src, dst, kind="relevance"):
        arrows[(src, dst)] = kind

    # chance parents: up to two earlier variables
    for c in chance:
        earlier = [v for v in layout[: pos[c]] if v != "V"]
        k = int(rng.integers(0, min(2, len(earlier)) + 1))
        for p in rng.choice(earlier, size=k, replace=False) if k else []:
            add(str(p), c)

    # decision parents: a small observation plus whatever no-forgetting forces
    parents_of: dict[str, list[str]] = {}
    for i, d in enumerate(decisions):
        inherited: list[str] = []
        if i > 0:
            prev = decisions[i - 1]
            inherited = parents_of[prev] + [prev]
        earlier_chance = [
            c for c in chance if pos[c] < pos[d] and c not in inherited
        ]
        extra = []
        if earlier_chance and rng.random() < 0.7:
            extra = [str(rng.choice(earlier_chance))]
        parents_of[d] = inherited + extra
        for p in parents_of[d]:
            add(p, d, "informational")

    # the last decision must be able to reach the value node
    v_candidates = [v for v in layout[:-1] if v != decisions[-1]] if decisions else layout[:-1]
    n_extra = int(rng.integers(0, min(3, len(v_candidates)) + 1))
    v_parents = [decisions[-1]] if decisions else []
    if n_extra:
        v_parents += [str(v) for v in rng.choice(v_candidates, size=n_extra, replace=False)]
    v_parents.sort(key=pos.__getitem__)
    for p in v_parents:
        add(p, "V")

    # constraints: random scope inside the parents, random nonempty cells
    constraints = []
    for d in decisions:
        ps = parents_of[d]
        k = int(rng.integers(0, min(2, len(ps)) + 1))
        scope = tuple(str(s) for s in rng.choice(ps, size=k, replace=False)) if k else ()
        labels = frames[d].labels
        cells = {}
        for cfg in iter_configs(scope, frames):
            n_allowed = int(rng.integers(1, len(labels) + 1))
            allowed = rng.choice(labels, size=n_allowed, replace=False)
            cells[cfg] = tuple(str(a) for a in allowed)
        constraints.append(Constraint(d, scope, cells))
        for s in scope:
            arrows[(s, d)] = "relevance"

    nodes = tuple(
        NodeSpec(v, "value") if v == "V"
        else NodeSpec(v, "decision" if v in decisions else "chance", frames[v])
        for v in layout
    )
    arrow_specs = tuple(ArrowSpec(s, t, k) for (s, t), k in arrows.items())

    cpts = []
    for c in chance:
        ps = tuple(s for (s, t) in arrows if t == c)
        rows = {}
        for cfg in iter_configs(ps, frames):
            counts = dyadic_row(rng, 2, allow_zeros)
            rows[cfg] = counts
        cpts.append(Cpt(c, ps, rows))

    vcells = {
        cfg: float(rng.integers(-100, 101))
        for cfg in iter_configs(tuple(v_parents), frames)
    }
    value = ValueTable(tuple(v_parents), vcells)

    if objective is None:
        objective = "maximize" if rng.random() < 0.5 else "minimize"
    return build_model(nodes, arrow_specs, cpts, constraints, value, objective)


def with_point_masses(model: IridModel, rng: np.random.Generator, share: float = 0.4) -> IridModel:
    """`model` with about `share` of its CPT rows replaced by a random point
    mass, so that conditioning events of probability zero occur.

    (`allow_zeros` draws binary rows from 16 multinomial trials, which leave
    a value empty once in 2**15 rows.)
    """
    cpts = []
    for cpt in model.cpts:
        labels = model.frame(cpt.child).labels
        rows = {}
        for cfg, row in cpt.rows.items():
            if rng.random() < share:
                hit = labels[int(rng.integers(len(labels)))]
                row = {lab: float(lab == hit) for lab in labels}
            rows[cfg] = row
        cpts.append(Cpt(cpt.child, cpt.parents, rows))
    return build_model(
        model.nodes, model.arrows, cpts, model.constraints, model.value, model.objective
    )


def certificate_model(source) -> IridModel:
    """A bundled model by name, or random model `source` (1-3 decisions),
    with point masses in every third."""
    if isinstance(source, str):
        return load_bundled(source)
    m = random_model(source + 7000, n_chance=(1, 5), n_decisions=(1, 3))
    if source % 3 == 0:
        m = with_point_masses(m, np.random.default_rng(source))
    return m


def random_policies(model: IridModel, rng: np.random.Generator) -> dict[str, Policy]:
    """One admissible policy per decision, chosen uniformly per cell."""
    out = {}
    for d in model.decisions:
        scope = model.parents(d)
        table = {}
        for cfg in iter_configs(scope, model.frames):
            allowed = model.admissible(d, dict(zip(scope, cfg)))
            table[cfg] = str(rng.choice(allowed))
        out[d] = Policy(d, scope, table)
    return out


def chain_tables(n: int, rng: np.random.Generator):
    """Random (non-dyadic) tables for `chain_model` with `n` chain variables."""
    p0 = rng.dirichlet([1.0, 1.0])
    p1 = rng.dirichlet([1.0, 1.0], size=(2, 2))
    steps = [rng.dirichlet([1.0, 1.0], size=2) for _ in range(n - 1)]
    values = rng.uniform(-100.0, 100.0, size=(2, 2))
    return p0, p1, steps, values


def chain_model(p0, p1, steps, values) -> IridModel:
    """Binary chain in the shape of the benchmark's chain workload: `C0`
    informs `D`; `D -> C1 -> ... -> Cn -> V` with `C0 -> C1`.

    p0[c0] = P(C0), p1[c0, d, c1] = P(C1 | C0, D), steps[i][a, b] =
    P(C(i+2) = b | C(i+1) = a) and values[d, cn] = V(D, Cn).
    """
    binary = Frame(("v0", "v1"))
    chain = [f"C{i}" for i in range(1, len(steps) + 2)]
    frames = {v: binary for v in ["C0", *chain]}
    frames["D"] = Frame(("d0", "d1"))
    nodes = [NodeSpec("C0", "chance", binary), NodeSpec("D", "decision", frames["D"])]
    nodes += [NodeSpec(c, "chance", binary) for c in chain]
    nodes.append(NodeSpec("V", "value"))
    links = [("C0", "C1"), ("D", "C1"), *zip(chain, chain[1:]), ("D", "V"), (chain[-1], "V")]
    arrows = [ArrowSpec("C0", "D", "informational")]
    arrows += [ArrowSpec(a, b, "relevance") for a, b in links]

    def row(p):
        return dict(zip(binary.labels, map(float, p)))

    cpts = [Cpt("C0", (), {(): row(p0)}),
            Cpt("C1", ("C0", "D"), {
                (c, d): row(p1[i, j])
                for i, c in enumerate(binary.labels)
                for j, d in enumerate(frames["D"].labels)})]
    cpts += [Cpt(b, (a,), {(x,): row(t[i]) for i, x in enumerate(binary.labels)})
             for (a, b), t in zip(zip(chain, chain[1:]), steps)]
    value = ValueTable(("D", chain[-1]), {
        (d, x): float(values[j, i])
        for j, d in enumerate(frames["D"].labels)
        for i, x in enumerate(binary.labels)})
    return build_model(tuple(nodes), tuple(arrows), tuple(cpts), (), value)


def multisite_model(k: int, rng: np.random.Generator) -> IridModel:
    """A wildcatter with `k` drill sites and a budget of 1 or 2 drills.

    Site i has oil `Oi` and a seismic reading `Ri`, observed before the drill
    decision `Di`.  The budget `B` and the earlier decisions are relevance
    arrows into each `Di`: its constraint allows drilling only while fewer
    than `B` drills have been made.  `V` sums the sites' payoffs: a gain for
    oil drilled, a loss for a dry hole, nothing for a site passed.  The
    probabilities are dyadic, as in `random_model`.
    """
    budget = Frame(("1", "2"))
    oil, reading, drill = Frame(("oil", "dry")), Frame(("good", "bad")), Frame(("drill", "pass"))
    sites = range(1, k + 1)
    nodes = [NodeSpec("B", "chance", budget)]
    for i in sites:
        nodes += [NodeSpec(f"O{i}", "chance", oil), NodeSpec(f"R{i}", "chance", reading),
                  NodeSpec(f"D{i}", "decision", drill)]
    nodes.append(NodeSpec("V", "value"))
    arrows = []
    for i in sites:
        arrows += [ArrowSpec(f"O{i}", f"R{i}", "relevance"), ArrowSpec("B", f"D{i}", "relevance")]
        arrows += [ArrowSpec(f"D{j}", f"D{i}", "relevance") for j in range(1, i)]
        arrows += [ArrowSpec(f"R{j}", f"D{i}", "informational") for j in range(1, i + 1)]
        arrows += [ArrowSpec(f"O{i}", "V", "relevance"), ArrowSpec(f"D{i}", "V", "relevance")]

    def row(frame, sixteenths):
        return {frame.labels[0]: sixteenths / 16, frame.labels[1]: (16 - sixteenths) / 16}

    cpts = [Cpt("B", (), {(): row(budget, int(rng.integers(4, 13)))})]
    constraints = []
    payoffs = []
    for i in sites:
        hit, miss = int(rng.integers(10, 15)), int(rng.integers(10, 15))
        cpts += [
            Cpt(f"O{i}", (), {(): row(oil, int(rng.integers(3, 10)))}),
            Cpt(f"R{i}", (f"O{i}",),
                {("oil",): row(reading, hit), ("dry",): row(reading, 16 - miss)}),
        ]
        scope = ("B", *(f"D{j}" for j in range(1, i)))
        constraints.append(Constraint(f"D{i}", scope, {
            (b, *done): ("drill", "pass") if done.count("drill") < int(b) else ("pass",)
            for b, *done in itertools.product(budget.labels, *[drill.labels] * (i - 1))
        }))
        gain, loss = 1000.0 * int(rng.integers(40, 121)), -1000.0 * int(rng.integers(10, 41))
        payoffs.append({("oil", "drill"): gain, ("dry", "drill"): loss,
                        ("oil", "pass"): 0.0, ("dry", "pass"): 0.0})
    v_parents = tuple(v for i in sites for v in (f"O{i}", f"D{i}"))
    cells = {
        cfg: sum(pay[cfg[2 * i], cfg[2 * i + 1]] for i, pay in enumerate(payoffs))
        for cfg in itertools.product(*[oil.labels, drill.labels] * k)
    }
    return build_model(nodes, arrows, cpts, constraints, ValueTable(v_parents, cells))


def escaped_label_model() -> IridModel:
    """One chance node whose name and labels need JSON escapes."""
    labels = ("é", '"q"', "back\\slash", "line\nbreak")
    return build_model(
        (NodeSpec("X é", "chance", Frame(labels)), NodeSpec("V", "value")),
        (ArrowSpec("X é", "V", "relevance"),),
        (Cpt("X é", (), {(): {lab: 0.25 for lab in labels}}),),
        (),
        ValueTable(("X é",), {(lab,): float(i) for i, lab in enumerate(labels)}),
    )


def escaped_decision_model() -> IridModel:
    """A chance node and a constrained decision that observes it, whose
    names and labels hold `%`, `%s`, quotes, backslashes, line breaks and
    non-ASCII text; its values need rounding to two decimals."""
    c, d = 'C %s "é"', "D\\50%\n"
    c_labels = ("100%", '%s "q"', "back\\slash\né")
    d_labels = ("go %d", "stay\n€")
    return build_model(
        (
            NodeSpec(c, "chance", Frame(c_labels)),
            NodeSpec(d, "decision", Frame(d_labels)),
            NodeSpec("V %", "value"),
        ),
        (
            ArrowSpec(c, d, "relevance"),
            ArrowSpec(c, "V %", "relevance"),
            ArrowSpec(d, "V %", "relevance"),
        ),
        (Cpt(c, (), {(): dict(zip(c_labels, (0.5, 0.25, 0.25)))}),),
        (Constraint(d, (c,), {
            (c_labels[0],): d_labels,
            (c_labels[1],): d_labels[1:],
            (c_labels[2],): d_labels,
        }),),
        ValueTable((c, d), {
            (c_labels[0], d_labels[0]): 12.345,
            (c_labels[0], d_labels[1]): -0.004,
            (c_labels[1], d_labels[0]): 7.0,
            (c_labels[1], d_labels[1]): 1 / 3,
            (c_labels[2], d_labels[0]): -2.5,
            (c_labels[2], d_labels[1]): 2.675,
        }),
    )

"""The four benchmark workloads: seeded inputs and the commands timed on them.

Every workload grows its graphs with ``fairpr generate`` (the generator
settings of the ROADMAP baseline) and may then derive more inputs from the
same seed with its own code: a thinned, directed copy of the graph and a
target set.  A round runs the workload's commands once on every instance.
Workloads whose solver work varies from seed to seed use several small
instances, so that the spread averages out within a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy import sparse

GENERATOR = {"r": 0.3, "alpha-red": 0.8, "alpha-blue": 0.5, "edges-per-node": 2}
TARGET_FRACTION = 0.2


@dataclass(frozen=True)
class Command:
    """One CLI invocation on an instance, minus its graph and output flags."""

    kind: str  # rank | audit | sweep
    algos: tuple[str, ...]
    phis: tuple[float, ...] = ()
    targeted: bool = False
    full_audit: bool = False  # audit every node instead of the default sample

    def argv(self, inst: "Instance", out: Path) -> list[str]:
        argv = [self.kind, "--edges", str(inst.edges), "--colors", str(inst.colors), "--out", str(out)]
        if self.kind == "sweep":
            argv += ["--algo", ",".join(self.algos), "--phi", ",".join(map(str, self.phis))]
        else:
            argv += ["--algo", self.algos[0]]
            if self.phis:
                argv += ["--phi", str(self.phis[0])]
        if self.targeted:
            argv += ["--target-set", str(inst.target_set), "--target-protected", str(inst.target_protected)]
        if self.full_audit:
            argv += ["--sample", str(inst.stats["n"])]
        return argv

    @property
    def label(self) -> str:
        text = f"{self.kind} {','.join(self.algos)}"
        if self.phis:
            text += f" phi={','.join(map(str, self.phis))}"
        if self.targeted:
            text += " targeted"
        if self.full_audit:
            text += " full"
        return text


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    instances: int
    commands: tuple[Command, ...]
    directed: bool = False  # drop edges and make dangling nodes after generating
    targets: bool = False   # draw a target set S and S_R = red & S


@dataclass
class Instance:
    """One seeded input graph and the files derived from it."""

    directory: Path
    generate_seed: int
    derive_seed: np.random.SeedSequence
    stats: dict = field(default_factory=dict)
    red: np.ndarray | None = None

    @property
    def edges(self) -> Path:
        return self.directory / "graph" / "edges.tsv"

    @property
    def colors(self) -> Path:
        return self.directory / "graph" / "colors.tsv"

    @property
    def target_set(self) -> Path:
        return self.directory / "target_set.txt"

    @property
    def target_protected(self) -> Path:
        return self.directory / "target_protected.txt"


WORKLOADS = {
    w.name: w
    for w in (
        # fspr solves on a thinned directed graph with 10% dangling nodes: projection,
        # fixed-point solves and the FISTA loop dominate, and the global and targeted
        # runs split them differently.  The only workload with sinks.
        Workload(
            name="fspr-directed",
            n=1000,
            instances=5,
            directed=True,
            targets=True,
            commands=(
                Command("rank", ("fspr",), (0.3,)),
                Command("rank", ("fspr",), (0.5,), targeted=True),
            ),
        ),
        # The default lfpr-o search: a dense n x n inverse and 205,001 evaluations;
        # its loss is about 3x the lower bound, so a better optimizer shows.  The
        # evaluation count is fixed, so one instance, repeated, suffices.
        Workload(
            name="lfpr-o-dense",
            n=400,
            instances=1,
            commands=(Command("rank", ("lfpr-o",), (0.3,)),),
        ),
        # Six cheap commands on the largest graph: TSV load, CSV/JSON writes and, in
        # set-up, graph generation dominate; solves and the phi = 0.3 bound are small.
        Workload(
            name="large-io",
            n=30000,
            instances=1,
            targets=True,
            commands=(
                Command("rank", ("opr",), (0.3,)),
                Command("rank", ("lfpr-n",), (0.3,)),
                Command("rank", ("lfpr-p",), (0.3,)),
                Command("rank", ("lfpr-u",), (0.3,), targeted=True),
                Command("audit", ("lfpr-u",), (0.3,)),
                Command("audit", ("opr",), full_audit=True),
            ),
        ),
        # One load, then 15 lfpr solves at phi far below the original red share, where
        # the water-filling lower bound costs O(n * rounds).
        Workload(
            name="phi-sweep",
            n=15000,
            instances=3,
            commands=(Command("sweep", ("lfpr-n", "lfpr-u", "lfpr-p"), (0.1, 0.2, 0.3, 0.5, 0.7)),),
        ),
    )
}


def scaled(workload: Workload, n: int) -> Workload:
    """The same workload on a smaller graph with one instance (smoke runs)."""
    return replace(workload, n=n, instances=1)


def make_instances(workload: Workload, seed: int, work: Path) -> list[Instance]:
    """Instances with generator and derivation seeds drawn from ``seed``."""
    root = np.random.SeedSequence([int(seed), sum(map(ord, workload.name))])
    instances = []
    for i, child in enumerate(root.spawn(workload.instances)):
        gen_child, derive_child = child.spawn(2)
        instances.append(
            Instance(
                directory=work / f"instance{i}",
                generate_seed=int(gen_child.generate_state(1)[0]),
                derive_seed=derive_child,
            )
        )
    return instances


def generate_argv(workload: Workload, inst: Instance) -> list[str]:
    argv = ["generate", "--n", str(workload.n), "--seed", str(inst.generate_seed)]
    for key, value in GENERATOR.items():
        argv += [f"--{key}", str(value)]
    return argv + ["--out", str(inst.edges.parent)]


def derive_inputs(workload: Workload, inst: Instance) -> None:
    """The benchmark's own seeded derivations, timed as part of set-up."""
    rng = np.random.default_rng(inst.derive_seed)
    if workload.directed:
        edges = np.loadtxt(inst.edges, dtype=np.int64, delimiter="\t", ndmin=2)
        n = sum(1 for _ in open(inst.colors, encoding="utf-8"))
        keep = np.ones(edges.shape[0], dtype=bool)
        keep[rng.choice(edges.shape[0], size=round(0.25 * edges.shape[0]), replace=False)] = False
        dangling = np.zeros(n, dtype=bool)
        dangling[rng.choice(n, size=round(0.10 * n), replace=False)] = True
        edges = edges[keep & ~dangling[edges[:, 0]]]
        with open(inst.edges, "w", encoding="utf-8") as fh:
            fh.writelines(f"{a}\t{b}\n" for a, b in edges.tolist())
    if workload.targets:
        red = read_red_mask(inst.colors)
        s = np.sort(rng.choice(red.size, size=round(TARGET_FRACTION * red.size), replace=False))
        inst.target_set.write_text("".join(f"{i}\n" for i in s.tolist()), encoding="utf-8")
        inst.target_protected.write_text("".join(f"{i}\n" for i in s[red[s]].tolist()), encoding="utf-8")


def describe_inputs(workload: Workload, inst: Instance) -> None:
    """Input statistics for the run record (not timed); sets ``inst.red``."""
    inst.red = read_red_mask(inst.colors)
    edges = np.loadtxt(inst.edges, dtype=np.int64, delimiter="\t", ndmin=2)
    n = inst.red.size
    inst.stats = {
        "n": n,
        "edges": int(edges.shape[0]),
        "dangling": int(n - np.unique(edges[:, 0]).size),
        "generate_seed": inst.generate_seed,
        "original_red_mass": red_pagerank_mass(edges, inst.red),
    }
    if workload.targets:
        inst.stats["target_size"] = sum(1 for _ in open(inst.target_set, encoding="utf-8"))
        inst.stats["target_protected_size"] = sum(1 for _ in open(inst.target_protected, encoding="utf-8"))


def read_red_mask(colors_path: Path) -> np.ndarray:
    colors = np.loadtxt(colors_path, dtype=np.int64, delimiter="\t", ndmin=2)
    red = np.zeros(colors.shape[0], dtype=bool)
    red[colors[:, 0]] = colors[:, 1] == 1
    return red


def red_pagerank_mass(edges: np.ndarray, red: np.ndarray, gamma: float = 0.15) -> float:
    """Red share of standard PageRank (dangling rows jump uniformly)."""
    n = red.size
    out = np.bincount(edges[:, 0], minlength=n)
    walk_t = sparse.csr_matrix((1.0 / out[edges[:, 0]], (edges[:, 1], edges[:, 0])), shape=(n, n))
    sinks = out == 0
    p = np.full(n, 1.0 / n)
    for _ in range(1000):
        nxt = (1.0 - gamma) * (walk_t @ p + p[sinks].sum() / n) + gamma / n
        step = np.abs(nxt - p).sum()
        p = nxt
        if step < 1e-13:
            break
    return float(p[red].sum())

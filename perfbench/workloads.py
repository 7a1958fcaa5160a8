"""The three workloads: their inputs, made from the seed, and their checks.

Every operation goes through ``geohom.cli.main`` exactly as a user types
it.  A round is a fixed list of operations; a run repeats whole rounds,
so the share of failed operations is the same in every run.
"""

from __future__ import annotations

import io
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from oracle import K33_HISTOGRAM, Oracle

GRID_BOUND = 5  # the smallest grid bound at which both targets complete
VERIFY_SEED_OFFSET = 94  # seed 7 gives the CLI defaults 7 and 101
VERIFY_CHECKS = 10


@dataclass
class Op:
    """One invocation of the command line."""

    name: str
    argv: list[str]
    out: Path | None = None  # file the invocation writes; else stdout is read
    expect: int = 0  # exit code of a correct run
    well_formed: bool = True


@dataclass
class Result:
    op: Op
    wall: float
    code: int | None
    text: str
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.code == self.op.expect


def invoke(main, op: Op) -> Result:
    stdout, stderr = io.StringIO(), io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(list(op.argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed operation, not a stopped run
        code, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if op.out is not None and code == op.expect:
        text = op.out.read_text(encoding="utf-8")
    else:
        text = stdout.getvalue()
    return Result(op, wall, code, text, error)


class Workload:
    name = ""
    setup_reps = 21  # set-up is one import here; its median needs many

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def prepare(self, main) -> None:
        """Build the inputs the timed part reads (part of set-up time)."""

    def round(self) -> list[Op]:
        raise NotImplementedError

    def counts(self, result: Result) -> tuple[int, int]:
        """(attempted, failed) operations for one invocation."""
        return 1, 0 if result.ok else 1

    def check(self, results: list[Result], oracle: Oracle) -> list[str]:
        raise NotImplementedError

    def timings(self, rounds: list[list[Result]]) -> dict[str, list[float]]:
        raise NotImplementedError


class Verify(Workload):
    """``geohom verify`` at default check sizes on two seeded enumerations."""

    name = "verify"

    def round(self) -> list[Op]:
        seed_b = self.seed + VERIFY_SEED_OFFSET
        return [Op("verify", ["verify", "--seed", str(self.seed), "--seed2", str(seed_b)])]

    @staticmethod
    def _passes(result: Result) -> int:
        return sum(1 for line in result.text.splitlines() if line.startswith("PASS "))

    def counts(self, result):
        return VERIFY_CHECKS, VERIFY_CHECKS - self._passes(result)

    def check(self, results, oracle):
        return [
            f"verify exited {r.code} {r.error} with {self._passes(r)} of"
            f" {VERIFY_CHECKS} checks passing"
            for r in results
            if r.code != 0 or self._passes(r) != VERIFY_CHECKS
        ]

    def timings(self, rounds):
        return {"verify_s": [r.wall for rnd in rounds for r in rnd]}


class Enumerate(Workload):
    """Random-mode k33 and k6 on seeds verify does not use, then grid mode."""

    name = "enumerate"

    def round(self) -> list[Op]:
        ops = []
        for graph, seed in (("k33", self.seed + 1), ("k6", self.seed + 2)):
            out = self.work / f"random_{graph}.json"
            ops.append(Op(f"enum_{graph}", [
                "enumerate", "--graph", graph, "--seed", str(seed), "--out", str(out),
            ], out))
        for graph in ("k33", "k6"):
            out = self.work / f"grid_{graph}.json"
            ops.append(Op(f"grid_{graph}", [
                "enumerate", "--graph", graph, "--mode", "grid",
                "--bound", str(GRID_BOUND), "--out", str(out),
            ], out))
        return ops

    def check(self, results, oracle):
        problems = []
        for r in results:
            if r.ok:
                target = r.op.argv[r.op.argv.index("--graph") + 1]
                problems += [f"{r.op.name}: {p}" for p in oracle.check_atlas(r.text, target)]
        return problems

    def timings(self, rounds):
        def wall(rnd, prefix):
            return sum(r.wall for r in rnd if r.op.name.startswith(prefix))

        return {
            "enum_k33_s": [wall(rnd, "enum_k33") for rnd in rounds],
            "enum_k6_s": [wall(rnd, "enum_k6") for rnd in rounds],
            "enum_grid_s": [wall(rnd, "grid_") for rnd in rounds],
        }


class Query(Workload):
    """hom / poset / export against a saved K_{3,3} atlas, plus four
    malformed invocations that must exit 2 (usage error)."""

    name = "query"
    setup_reps = 3

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.atlas = work / "atlas_k33.json"

    def prepare(self, main):
        op = Op("setup", [
            "enumerate", "--graph", "k33", "--seed", str(self.seed + 3),
            "--out", str(self.atlas),
        ], self.atlas)
        result = invoke(main, op)
        if not result.ok:
            raise RuntimeError(f"set-up enumeration failed: {result.code} {result.error}")

    def _picks(self):
        from geohom import reference_data as ref

        rng = random.Random(self.seed)
        cells = [(row, col) for row in ref.LEVEL3_LABELS for col in ref.LEVEL5_LABELS]
        related = [c for c in cells if c[1] in ref.LEVEL12_COVER_PATTERN[c[0]]]
        unrelated = [c for c in cells if c not in related]
        pairs = rng.sample(related, 2) + rng.sample(unrelated, 1)
        pairs.append(rng.choice(ref.NON_PRECEDENCE_FACTS)[:2])
        labels = [f"{cr}.{k}" for cr, n in K33_HISTOGRAM.items() for k in range(1, n + 1)]
        return pairs, rng.choice(labels)

    def round(self) -> list[Op]:
        pairs, label = self._picks()
        atlas = ["--atlas", str(self.atlas)]

        def writes(name, argv, filename):
            path = self.work / filename
            return Op(name, [*argv, *atlas, "--out", str(path)], path)

        ops = [Op(f"hom {s} {d}", ["hom", s, d, *atlas]) for s, d in pairs]
        ops += [
            writes("poset json", ["poset", "--format", "json"], "poset.json"),
            writes("poset dot", ["poset", "--format", "dot"], "poset.dot"),
            writes("export atlas", ["export", "--what", "atlas"], "pinned.json"),
            writes("export hasse", ["export", "--what", "hasse"], "hasse.dot"),
            writes(f"export ex {label}", ["export", "--what", "ex", "--label", label], "ex.dot"),
            writes(f"export lex {label}", ["export", "--what", "lex", "--label", label], "lex.dot"),
        ]
        malformed = [
            ["poset", "--bound", "1"],
            ["hom", "3.1", "5.1", "--window", "0"],
            ["export", "--what", "hasse", "--max-samples", "0"],
            ["enumerate", "--bound", "2000000", "--out", str(self.work / "never.json")],
        ]
        ops += [Op(" ".join(argv[:3]), argv, expect=2, well_formed=False) for argv in malformed]
        return ops

    def check(self, results, oracle):
        from geohom import reference_data as ref

        facts = {(s, d): cond for s, d, cond in ref.NON_PRECEDENCE_FACTS}
        by_name = {}
        for r in results:
            if r.ok and r.op.well_formed:
                by_name.setdefault(r.op.name, []).append(r)
        if "export atlas" not in by_name:
            return ["export --what atlas never succeeded; nothing to check against"]
        problems = []
        pinned = by_name["export atlas"][0].text
        problems += oracle.check_atlas(pinned, "k33")
        by_label = oracle.labelled(pinned)
        for name, done in by_name.items():
            for r in done:
                if r.text != done[0].text:
                    problems.append(f"{name}: output differs between rounds")
            text = done[0].text
            if name.startswith("hom "):
                _, src, dst = name.split()
                problems += oracle.check_hom(text, src, dst, by_label, facts)
            elif name == "poset json":
                problems += oracle.check_poset_json(text, by_label)
            elif name in ("poset dot", "export hasse"):
                problems += oracle.check_hasse_dot(text, by_label)
            elif name.startswith(("export ex ", "export lex ")):
                _, what, label = name.split()
                problems += oracle.check_crossing_dot(text, by_label[label], what)
        return problems

    def timings(self, rounds):
        return {"query_s": [r.wall for rnd in rounds for r in rnd if r.op.well_formed]}


WORKLOADS = {w.name: w for w in (Verify, Enumerate, Query)}

"""Benchmark of the ``onepl`` command line, one command at a time.

    python3 onepl_bench/run.py --workload theorems|search|hub --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The inputs are generated from the seed
(see ``gen.py``); the program receives only those files.  With
``--trace 0`` the workload's commands are repeated in whole rounds until
``S`` seconds of command time are measured, each command run at once on
two CPUs, and the end-to-end metrics are printed.  With ``--trace 1``
each command of one round runs in a fresh worker process (``spans.py``),
untraced and again with spans around every public function of the
package, and the per-layer metrics are printed.  Every output is checked
by ``check.py``, outside the timed region.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, List, NamedTuple, Tuple

import check
import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

# Each vCPU of the machine this was tuned on runs up to 1.7x slower, on
# its own, for stretches of seconds.  So each measured command runs at
# once on two CPUs, when there are two, and its fastest copy counts.
CPUS = sorted(os.sched_getaffinity(0))[:2]
# Raced rounds of `onepl validate <input>` before each measured round;
# their fastest copy is setup_s.
SETUP_ROUNDS = 2
# Runs of `python -c "import oneplanar.cli"` whose fastest is cli.startup_s.
STARTUP_REPEATS = 10
# Copies of K6 glued at two vertices; the hub has degree 4n + 1.
HUB_COPIES = 600
SEARCHED = ("edge_77", "k4_typed", "triangle_779", "chorded_c4", "paw_9max")


class Command(NamedTuple):
    args: List[str]
    out: Path
    check: Callable[[str], List[str]]


class Result(NamedTuple):
    code: int
    wall: float
    cpu: float
    rss_mb: float


def start(args: List[str], out: Path, cpu: int) -> subprocess.Popen:
    """Start ``launch.py``, which runs one ``onepl`` command on ``cpu``
    with stdout to ``out``."""
    return subprocess.Popen(
        [sys.executable, str(BENCH / "launch.py"), str(cpu), str(out), f"{out}.err", "--",
         sys.executable, "-m", "oneplanar.cli", *args],
        env=ENV, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def finish(proc: subprocess.Popen) -> Result:
    reply, _ = proc.communicate()
    if proc.returncode != 0 or not reply:
        raise RuntimeError("the command launcher failed")
    return Result(**json.loads(reply))


def race(args: List[str], out: Path) -> List[Tuple[Path, Result]]:
    """Run one command at once on each of ``CPUS``; the copy on CPU c
    writes its stdout to ``out.c``."""
    paths = [out.with_name(f"{out.name}.{cpu}") for cpu in CPUS]
    procs = [start(args, path, cpu) for path, cpu in zip(paths, CPUS)]
    for proc in procs:
        proc.wait()  # the one-line reply cannot fill the pipe
    return [(path, finish(proc)) for path, proc in zip(paths, procs)]


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _require(problems: List[str], what: str) -> None:
    if problems:
        raise RuntimeError(f"{what}: {'; '.join(problems)}")


class Theorems:
    """check-theorems on a seeded min-degree-7 pentakis-dodecahedron diagram."""

    def __init__(self, seed: int, work: Path):
        vertices, rot = gen.generate("pentakis", seed)
        _require(check.check_diagram(vertices, rot, 7), "generated input")
        g = check.graph_of(vertices, rot)
        _require([p for p in check.PATTERNS if not check.has_match(g, p)], "pattern missing")
        self.setup_input = _write(work / "pentakis.onepl", gen.to_text(vertices, rot))
        self.commands = [Command(["check-theorems", str(self.setup_input)],
                                 work / "out" / "theorems.txt", check.check_theorems)]

class Search:
    """Full typed search for five catalog patterns on a geodesic diagram."""

    def __init__(self, seed: int, work: Path):
        vertices, rot = gen.generate("geodesic4", seed)
        _require(check.check_diagram(vertices, rot, 7), "generated input")
        g = check.graph_of(vertices, rot)
        expected = {p: check.match_keys(g, p) for p in SEARCHED}
        self.setup_input = _write(work / "geodesic4.onepl", gen.to_text(vertices, rot))
        self.commands = [
            Command(["find", "--pattern", p, str(self.setup_input)], work / "out" / f"find_{p}.txt",
                    lambda text, p=p: check.check_find(text, p, g, expected[p]))
            for p in SEARCHED
        ]

class Hub:
    """glue K6 into a hub of degree 4n + 1, then read and discharge it."""

    def __init__(self, seed: int, work: Path):
        vertices, rot = gen.generate("k6", seed)
        _require(check.check_diagram(vertices, rot, 5), "generated input")
        rng = random.Random(f"hub:{seed}")
        faces = check.trace_faces(vertices, rot)
        kind = dict(vertices)
        true_faces = [i for i, f in enumerate(faces) if all(kind[v] == "true" for v in f)]
        face = rng.choice(true_faces)
        w1, w2 = rng.sample(faces[face], 2)
        base = _write(work / "k6.onepl", gen.to_text(vertices, rot))
        n_g = len(set(check.smooth_edges(vertices, rot)))
        self.want_sizes = (HUB_COPIES * (len(vertices) - 2) + 2, HUB_COPIES * (n_g - 1) + 1)
        self.setup_input = hub = work / "hub.onepl"
        self.glued = None
        out = work / "out"
        self.commands = [
            Command(["glue", "--w1", w1, "--w2", w2, "--face", str(face), "-n", str(HUB_COPIES),
                     str(base)], hub, self._check_glue),
            Command(["validate", str(hub)], out / "validate.txt",
                    lambda text: [] if text == "ok\n" else [f"validate printed {text[:200]!r}"]),
            Command(["faces", str(hub)], out / "faces.txt",
                    lambda text: check.check_faces(text, *self.glued[:2])),
            Command(["smooth", str(hub)], out / "smooth.txt",
                    lambda text: check.check_smooth(text, *self.glued[:2])),
        ] + [
            Command(["discharge", "--rules", r, "--log", str(hub)], out / f"discharge_{r}.txt",
                    lambda text, r=r: check.check_discharge(text, r, *self.glued))
            for r in "ABC"
        ]
        # the glued diagram is the input of every later command and of setup
        if finish(start(self.commands[0].args, hub, CPUS[0])).code != 0:
            raise RuntimeError("glue failed while setting up")

    def _check_glue(self, text: str) -> List[str]:
        vertices, rot = check.parse_onepl(text)
        self.glued = (vertices, rot, check.trace_faces(vertices, rot))
        problems = check.check_diagram(vertices, rot, None)
        sizes = (len(vertices), len(set(check.smooth_edges(vertices, rot))))
        if sizes != self.want_sizes:
            problems.append(f"glued |V|, |E(G)| = {sizes}, want {self.want_sizes}")
        return problems


WORKLOADS = {"theorems": Theorems, "search": Search, "hub": Hub}


class Tally:
    """Counts commands and checks each distinct output once.

    Rounds repeat the same commands on the same inputs, so an output that
    is byte-identical to one already checked in this run needs no second
    check.
    """

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: List[str] = []
        self.checked = set()

    def record(self, cmd: Command, code: int, out: Path) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"failed ({code}): onepl {' '.join(cmd.args)}", file=sys.stderr)
            return
        text = out.read_text(encoding="utf-8")
        key = (tuple(cmd.args), hashlib.sha256(text.encode()).digest())
        if key in self.checked:
            return
        try:
            problems = cmd.check(text)
        except (ValueError, KeyError, IndexError, AttributeError, TypeError) as exc:
            problems = [f"unreadable output ({exc!r})"]
        for p in problems:
            print(f"wrong output: onepl {' '.join(cmd.args[:3])}: {p}", file=sys.stderr)
        self.problems += problems
        if not problems:
            self.checked.add(key)


def measure_setup(w) -> List[float]:
    walls = []
    for _ in range(SETUP_ROUNDS):
        for out, r in race(["validate", str(w.setup_input)], w.setup_input.parent / "out" / "setup"):
            if r.code != 0 or out.read_text() != "ok\n":
                raise RuntimeError("the workload's input does not validate")
            walls.append(r.wall)
    return walls


def end_to_end(w, seconds: float, tally: Tally) -> dict:
    """Whole rounds until ``seconds`` of command time are measured.

    Each command of a round is raced on ``CPUS``.  Times are the fastest
    copy over all rounds for each command, summed over the commands:
    other tenants of the machine only ever slow a command down, so the
    fastest copy is the steadiest estimate of its cost.  setup_s is the
    fastest copy of the validate rounds run before each round, so that
    its samples too are spread over the whole run.  Memory is the largest
    per-command median.
    """
    setups: List[float] = []
    runs: List[List[Result]] = [[] for _ in w.commands]
    rounds = []
    while not rounds or sum(rounds) < seconds:
        setups += measure_setup(w)
        took = 0.0
        for c, copies in zip(w.commands, runs):
            for out, r in race(c.args, c.out):
                tally.record(c, r.code, out)
                copies.append(r)
            took += max(r.wall for r in copies[-len(CPUS):])
        rounds.append(took)
    print(f"{len(rounds)} rounds on CPUs {CPUS}:", *(f"{t:.2f}" for t in rounds), file=sys.stderr)
    wall = sum(min(r.wall for r in copies) for copies in runs)
    cpu = sum(min(r.cpu for r in copies) for copies in runs)
    rss = max(statistics.median(r.rss_mb for r in copies) for copies in runs)
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "cpu_s": {"value": cpu, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "setup_s": {"value": min(setups), "unit": "s"},
    }


def layer_metrics(trace, startup, stdout_bytes) -> dict:
    spans = [(s["name"], s["start"], s["end"], s["parent"], s["attrs"]) for s in trace["spans"]]

    def total(name, where=lambda attrs: True):
        tallied = trace["tallies"].get(name, {"seconds": 0.0})["seconds"]
        return tallied + sum(s[2] - s[1] for s in spans if s[0] == name and where(s[4]))

    def attr_sum(name, key):
        return sum(s[4][key] for s in spans if s[0] == name)

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    built = {}
    for s in spans:
        if s[0] == "patterns._canonicalize" and s[3] is not None:
            built[s[3]] = s[4]["built"]
    for p in check.PATTERNS:
        is_p = lambda a, p=p: a["pattern"] == p
        exists = [(i, s) for i, s in enumerate(spans)
                  if s[0] == "patterns.find_typed" and s[4]["pattern"] == p and s[4]["limit"] == 1]
        put(f"patterns.find_typed.{p}_s", total("patterns.find_typed", is_p), "s")
        put(f"patterns.exists.{p}_s", sum(s[2] - s[1] for _, s in exists), "s")
        answers = sum(1 for _, s in exists if s[4]["returned"])
        made = sum(built.get(i, s[4]["returned"]) for i, s in exists)
        put(f"patterns.exists_waste.{p}", made / answers if answers else 0, "match/answer")
        if p in SEARCHED:
            put(f"patterns.matches.{p}", sum(s[4]["returned"] for s in spans
                                             if s[0] == "patterns.find_typed"
                                             and s[4]["pattern"] == p and s[4]["limit"] is None),
                "count")
    put("patterns.check_guarantees_s", total("patterns.check_guarantees"), "s")
    for f in ("validate", "parse", "serialize", "smooth"):
        put(f"diagram.{f}_s", total(f"diagram.{f}"), "s")
    put("diagram.max_degree", max((s[4]["max_degree"] for s in spans
                                   if s[0] == "diagram.validate"), default=0), "count")
    put("construct.glue_s", total("construct.glue"), "s")
    put("embedding.trace_faces_s", total("embedding.trace_faces"), "s")
    put("embedding.classify_s", total("embedding.classify"), "s")
    put("embedding.faces", attr_sum("embedding.trace_faces", "faces"), "count")
    put("charge.initial_charges_s", total("charge.initial_charges"), "s")
    for r in "ABC":
        put(f"charge.rule_set_{r}_s", total(f"charge.apply_rule_set_{r.lower()}"), "s")
    put("charge.transfers", sum(attr_sum(f"charge.apply_rule_set_{r}", "transfers") for r in "abc"),
        "count")
    put("charge.extract_witness_s", total("charge.extract_witness"), "s")
    put("charge.witnesses", sum(1 for s in spans if s[0] == "charge.extract_witness"), "count")
    put("charge.witnesses_verified", attr_sum("charge.extract_witness", "verified"), "count")
    put("cli.startup_s", startup, "s")
    put("cli.stdout_bytes", stdout_bytes, "B")
    # self time of cli.run plus one interpreter start and import per command
    cli_spans = {i for i, s in enumerate(spans) if s[0] == "cli.run"}
    in_layers = sum(s[2] - s[1] for s in spans if s[3] in cli_spans)
    in_cli = sum(spans[i][2] - spans[i][1] for i in cli_spans)
    put("cli.self_s", in_cli - in_layers + len(cli_spans) * startup, "s")
    plain, with_spans = sum(trace["plain_walls"]), sum(trace["traced_walls"])
    put("trace.overhead_pct", 100 * (with_spans - plain) / plain, "%")
    return m


def traced(w, tally: Tally) -> dict:
    startup = []
    for _ in range(STARTUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import oneplanar.cli"], env=ENV, cwd=ROOT, check=True)
        startup.append(perf_counter() - start)

    work = w.setup_input.parent
    plan = _write(work / "plan.json", json.dumps(
        [[c.args, str(c.out.with_suffix(".plain")), str(c.out)] for c in w.commands]))
    subprocess.run([sys.executable, str(BENCH / "spans.py"), str(plan), str(work / "spans.json")],
                   env=ENV, cwd=ROOT, check=True)
    trace = json.loads((work / "spans.json").read_text())
    for c, plain_code, traced_code in zip(w.commands, trace["plain_codes"], trace["traced_codes"]):
        tally.record(c, plain_code, c.out.with_suffix(".plain"))
        tally.record(c, traced_code, c.out)
    stdout_bytes = sum(c.out.stat().st_size for c in w.commands)
    return layer_metrics(trace, min(startup), stdout_bytes)


def main() -> int:
    ap = argparse.ArgumentParser(description="benchmark of the onepl command line")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "oneplanar" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'oneplanar'}; run from a checkout", file=sys.stderr)
        return 2

    work = BENCH / ".work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    w = WORKLOADS[args.workload](args.seed, work)
    if finish(start(["validate", str(w.setup_input)], work / "out" / "warm", CPUS[0])).code != 0:
        print("error: the program does not validate the generated input", file=sys.stderr)
        return 1
    tally = Tally()
    metrics = traced(w, tally) if args.trace else end_to_end(w, args.seconds, tally)
    result = {"correct": not tally.problems, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    shutil.rmtree(work / "out")
    _write(work / "result.json", json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

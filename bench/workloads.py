"""The benchmark's workloads: what one pass runs and how its outputs are checked.

``certify`` and ``roundtrip`` run verification suites at the arguments of
the acceptance criteria; ``pointwise`` runs a seeded stream of single
library calls.  A pass is a fixed amount of work determined by the seed and
the pass index, so traced call counts repeat exactly.  Everything reaches
the package through its public entry points, looked up on the ``atrig``
modules at call time so that installed trace wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

import checks
from speed import PlainClock

PLAIN = PlainClock()


@dataclass
class PassResult:
    wall_s: float = 0.0
    busy_s: float = 0.0  # time inside the program's entry points
    units: int = 0  # report rows checked (suites) or calls made (pointwise)
    requests: list = field(default_factory=list)  # (op, degree, norm, seconds)
    outcomes: Counter = field(default_factory=Counter)  # (op, status) -> count
    accuracy: dict = field(default_factory=dict)  # name -> (worst residual, tol)
    notes: list = field(default_factory=list)  # first failures, for the record
    suite_s: dict = field(default_factory=dict)  # seconds per suite invocation

    def count(self, status: str) -> int:
        return sum(n for (_, s), n in self.outcomes.items() if s == status)

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    def note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)


def headroom_digits(accuracy: dict) -> float:
    """min over entries of log10(tol / worst residual)."""
    return min(
        math.log10(tol / max(worst, checks.RESIDUAL_FLOOR))
        for worst, tol in accuracy.values()
    )


# -- verification suites -------------------------------------------------------


@dataclass(frozen=True)
class Suite:
    name: str  # as the suite report spells it
    samples: int  # the --samples argument
    tol: float
    library: str | None = None  # verify function to call, else atrig.cli.main


#: Acceptance arguments: criteria 7, 1, 2, 3 and 4, 5, 8.
SUITES = {
    "certify": (
        Suite("identities", 200, 1e-9),
        Suite("kthagorean", 100, 1e-9),
        Suite("only-pure-power", 100, 1e-9),
        Suite("lemma", 20, 1e-6),
    ),
    "roundtrip": (
        Suite("roundtrip", 500, 1e-8),
        Suite("polar", 200, 1e-8, library="polar_suite"),
        Suite("crt", 500, 1e-9, library="crt_suite"),
    ),
}
#: A pass runs every suite at this share of its acceptance --samples, so
#: that a pass takes a few seconds and one run holds enough passes for a
#: median; at the full acceptance size one pass nearly fills a run.
PASS_SHARE = 5
TINY_SAMPLES = 2  # --samples of every suite at --scale tiny

#: The certify pass ends by rendering one identity set, the only caller of
#: identities.render; the output must be one LaTeX display per formula.
RENDER_ARGV = ("--algebra", "H3", "identity", "add-angle", "--format", "latex")
RENDER_FORMULAS = 3


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def _unwrap(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


class SuiteWorkload:
    """Suites run one after another.  Each report row, one certified case,
    is one operation; its latency is the suite's time shared evenly among
    the suite's rows."""

    def __init__(self, atrig, name: str, seed: int, scale: str) -> None:
        self.atrig = atrig
        self.seed = seed
        self.render = name == "certify"
        self.acceptance = SUITES[name]
        self.suites = tuple(
            replace(s, samples=s.samples // PASS_SHARE if scale == "full" else TINY_SAMPLES)
            for s in self.acceptance
        )

    def sizes(self) -> dict:
        sizes = {
            s.name: {"samples": s.samples, "acceptance_samples": a.samples, "tol": s.tol}
            for s, a in zip(self.suites, self.acceptance)
        }
        if self.render:
            sizes["render"] = {"argv": list(RENDER_ARGV)}
        return sizes

    def inputs(self, pass_index: int):
        return self.suites  # the suites draw their own samples from the seed

    def _cli(self, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.atrig.cli.main(list(argv))
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()

    def _invoke(self, suite: Suite) -> tuple[int, str]:
        if suite.library is None:
            return self._cli([
                "verify", "--suite", suite.name, "--samples", str(suite.samples),
                "--tol", repr(suite.tol), "--seed", str(self.seed),
            ])
        run = getattr(self.atrig.verify, suite.library)
        report = run(samples=suite.samples, tol=suite.tol, seed=self.seed)
        # Report rows may hold numpy scalars (crt_suite's numpy.bool_ pass
        # flags); they are unwrapped, but NaN and Infinity are still refused.
        return 0, json.dumps(report.to_json_dict(), allow_nan=False, default=_unwrap)

    def _timed(self, name: str, call, res: PassResult, tracer, clock):
        if tracer is not None:
            tracer.begin_request()
        t0 = clock.now()
        try:
            code, text = call()
        except Exception as exc:  # any crash is a failed outcome, not an abort
            code, text = None, f"{type(exc).__name__}: {exc}"
        seconds = clock.elapsed(t0)
        res.busy_s += seconds
        res.suite_s[name] = seconds
        return code, text

    def run_pass(self, suites, tracer=None, clock=PLAIN) -> PassResult:
        res = PassResult()
        started = clock.now()
        for suite in suites:
            code, text = self._timed(
                suite.name, lambda: self._invoke(suite), res, tracer, clock
            )
            self._check(suite, code, text, res)
        if self.render:
            code, text = self._timed(
                "render", lambda: self._cli(RENDER_ARGV), res, tracer, clock
            )
            lines = text.splitlines()
            ok = code == 0 and len(lines) == RENDER_FORMULAS and all(
                line.startswith("\\[") and line.endswith("\\]") for line in lines
            )
            res.outcomes[("render", "ok" if ok else "failed")] += 1
            res.units += 1
            res.requests.append(("render", 0, "", res.suite_s["render"]))
            if not ok:
                res.note(f"render: exit {code}: {text[:300]}")
        res.wall_s = clock.elapsed(started)
        return res

    def _check(self, suite: Suite, code, text: str, res: PassResult) -> None:
        seconds = res.suite_s[suite.name]
        try:
            payload = strict_json(text) if code is not None else None
        except ValueError as exc:
            payload = None
            text = f"stdout is not strict JSON: {exc}"
        ok = (
            code == 0
            and isinstance(payload, dict)
            and payload.get("suite") == suite.name
            and payload.get("pass") is True
            and isinstance(payload.get("details"), list)
        )
        if not ok:
            res.outcomes[(suite.name, "failed")] += 1
            res.requests.append((suite.name, 0, "", seconds))
            res.note(f"{suite.name}: exit {code}: {text[:300]}")
            return
        rows = payload["details"]
        for row in rows:
            status = "ok" if row["pass"] is True else "failed"
            res.outcomes[(suite.name, status)] += 1
            res.units += 1
            res.requests.append((suite.name, 0, "", seconds / len(rows)))
            if status == "failed":
                res.note(f"{suite.name}: {row}")
        res.accuracy[suite.name] = (float(payload["worst_residual"]), float(payload["tol"]))


# -- pointwise stream ------------------------------------------------------------

OPS = ("exp", "log", "polar", "pythagorean", "mul", "invert", "find_roots", "components")
DEGREES = (2, 3, 6, 16, 32)
PRESET_KINDS = ("hyperbolic", "complicated", "nil")
SMALL_NORM = 0.5  # ||w||_inf bound that needs no squaring
LARGE_NORM = (3.0, 6.0)  # 3 to 4 squarings; precision loss at n >= 6
NORMS = ("small", "large")
SOURCES = ("preset", "fresh")
PASS_REQUESTS = {"full": 1600, "tiny": 160}  # 20 and 2 per (op, degree, norm) cell


@dataclass
class Request:
    op: str
    degree: int
    norm: str  # "small" or "large"
    source: str  # "preset" or "fresh"
    pres: object
    x: object = None  # first operand, or exp(w) for log and polar
    y: object = None  # second operand of mul
    dec: object = None  # decomposition for the component round trip


class PointwiseWorkload:
    """Single library calls, each timed alone and checked afterwards."""

    def __init__(self, atrig, seed: int, scale: str) -> None:
        self.atrig = atrig
        self.seed = seed
        self.size = PASS_REQUESTS[scale]

    def sizes(self) -> dict:
        return {
            "requests_per_pass": self.size,
            "ops": list(OPS),
            "degrees": list(DEGREES),
            "small_norm": SMALL_NORM,
            "large_norm": list(LARGE_NORM),
            "fresh_moduli": "atrig.verify.random_depressed_presentation, default range",
        }

    def inputs(self, pass_index: int) -> list[Request]:
        """Every (operation, degree, norm) cell equally often, half of each
        cell on presets and half on fresh moduli, in seeded random order."""
        rng = np.random.default_rng([self.seed, pass_index])
        cells = [(op, n, norm) for op in OPS for n in DEGREES for norm in NORMS]
        per_cell = self.size // len(cells)
        plan = [cell + (SOURCES[i % 2],) for cell in cells for i in range(per_cell)]
        return [self._draw(rng, *plan[i]) for i in rng.permutation(len(plan))]

    def _fresh(self, rng, n):
        # The suites' own draw: at n >= 16 it reaches exp's overflow and
        # non-convergence (ROADMAP item 4), which the stream keeps.
        return self.atrig.verify.random_depressed_presentation(rng, n)

    def _element(self, rng, pres, norm: str):
        v = rng.uniform(-1.0, 1.0, pres.degree)
        target = SMALL_NORM if norm == "small" else rng.uniform(*LARGE_NORM)
        return pres.element(v * (target / float(np.max(np.abs(v)))))

    def _draw(self, rng, op, n, norm, source) -> Request:
        # polar needs a pure-power algebra; root-based ops need semisimple ones.
        if op == "polar":
            source = "preset"
        kinds = PRESET_KINDS[:2] if op in ("find_roots", "components") else PRESET_KINDS
        kind = kinds[rng.integers(len(kinds))]
        atrig = self.atrig
        for _ in range(100):
            pres = atrig.preset(kind, n) if source == "preset" else self._fresh(rng, n)
            req = Request(op, n, norm, source, pres, x=self._element(rng, pres, norm))
            try:
                if op in ("log", "polar"):
                    req.x = self._exp_input(rng, req.x)
                elif op == "mul":
                    req.y = self._element(rng, pres, norm)
                elif op == "components":
                    req.dec = atrig.find_roots(pres)
                return req
            except atrig.errors.AlgebraError:
                # No decomposition, so no input; the find_roots requests,
                # drawn the same way, count such moduli.
                continue
        raise RuntimeError(f"no usable {op} input drawn for degree {n}")

    def _exp_input(self, rng, w):
        """exp(w), the input of log and polar.  Where exp(w) is refused or
        not finite (fresh moduli at n >= 16, counted on the exp requests),
        the suites' log-domain sample with capped spectrum is used instead."""
        atrig = self.atrig
        try:
            z = atrig.exp(w)
            if np.all(np.isfinite(z.coords)):
                return z
        except atrig.errors.AlgebraError:
            pass
        pres = w.presentation
        return atrig.verify.random_ld_sample(rng, pres, atrig.find_roots(pres))

    def call(self, req: Request):
        atrig, op = self.atrig, req.op
        if op == "exp":
            return atrig.exp(req.x)
        if op == "log":
            return atrig.log(req.x)
        if op == "polar":
            return atrig.polar(req.x)
        if op == "pythagorean":
            return atrig.pythagorean(req.x)
        if op == "mul":
            return atrig.mul(req.x, req.y)
        if op == "invert":
            return atrig.invert(req.x)
        if op == "find_roots":
            return atrig.find_roots(req.pres)
        return atrig.from_components(atrig.to_components(req.x, req.dec), req.dec)

    def run_pass(self, requests: list[Request], tracer=None, clock=PLAIN) -> PassResult:
        res = PassResult()
        errors = self.atrig.errors.AlgebraError
        now, elapsed = clock.now, clock.elapsed
        answers = []
        for req in requests:
            if tracer is not None:
                tracer.begin_request()
            t0 = now()
            try:
                answer = self.call(req)
            except Exception as exc:  # sorted into refused or failed below
                answer = exc
            seconds = elapsed(t0)
            res.busy_s += seconds
            res.requests.append((req.op, req.degree, req.norm, seconds))
            answers.append(answer)
        if tracer is not None:
            tracer.active = False  # the checks below are the benchmark's own work
        worst: dict[str, float] = {}
        for req, answer in zip(requests, answers):
            status = self._classify(req, answer, errors, worst, res)
            res.outcomes[(req.op, status)] += 1
        if tracer is not None:
            tracer.active = True
        # The caller waits only for the calls; the checks are ours.
        res.wall_s = res.busy_s
        res.units = len(requests)
        res.accuracy = {op: (r, checks.TOLERANCE[op]) for op, r in worst.items()}
        return res

    def _classify(self, req, answer, errors, worst, res) -> str:
        if isinstance(answer, errors):
            return "refused"
        where = f"{req.op} n={req.degree} {req.norm} {req.source} {req.pres}"
        if isinstance(answer, Exception):
            res.note(f"{where}: {type(answer).__name__}: {answer}")
            return "failed"
        try:
            residual = checks.check(self.atrig, req.op, req, answer)
        except checks.NonFinite:
            return "nonfinite"  # a wrong answer, like "inaccurate"
        except checks.Malformed as exc:
            res.note(f"{where}: {exc}")
            return "failed"
        except errors:
            return "inaccurate"  # the check's own route refused: not shown right
        if not residual <= checks.TOLERANCE[req.op]:  # NaN included
            return "inaccurate"
        # Headroom is taken where the problem is well conditioned, on small
        # norms and presets; losses elsewhere show in the inaccurate count.
        if req.norm == "small" and req.source == "preset":
            worst[req.op] = max(worst.get(req.op, 0.0), residual)
        return "ok"


def make(atrig, name: str, seed: int, scale: str):
    if name == "pointwise":
        return PointwiseWorkload(atrig, seed, scale)
    if name in SUITES:
        return SuiteWorkload(atrig, name, seed, scale)
    raise ValueError(f"unknown workload {name!r}")

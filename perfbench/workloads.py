"""The three workloads: inputs drawn from the seed, ops, and output checks.

Every op's output is checked against something the program did not
produce: the QUEKO construction (an optimum known by design), a checked
RUP refutation of the next-better bound, or the independent validator run
on the benchmark's own copy of the circuit and device.  Nothing is compared
with stored output of an earlier run.

A workload runs in rounds.  Each round attempts the same list of ops on
fresh inputs: round 0 is the warm-up pass, timed rounds start at 1.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.certify import certify_bound
from repro.arch import by_name, google_sycamore, grid, ibm_eagle, ibm_falcon, linear
from repro.circuit import Gate, QuantumCircuit
from repro.circuit.canonical import circuit_fingerprint
from repro.core import OLSQ2, SynthesisConfig, validate_result
from repro.core.result import SynthesisResult
from repro.workloads.queko import queko_circuit
from repro.workloads.random_circuits import random_circuit

#: Far above any op's cost (the slowest takes ~3 s), so no op's work
#: depends on the clock: the subarch driver splits this evenly across
#: candidates and every solve call gets it whole.
BUDGET = 3600.0


@dataclasses.dataclass
class Op:
    """One attempted operation and what came back."""

    kind: str
    payload: Dict[str, Any]
    wall: float = 0.0
    result: Any = None
    error: Optional[str] = None


def relabeled(circuit: QuantumCircuit, rng: random.Random) -> QuantumCircuit:
    """``circuit`` with its program qubits renamed by a random permutation."""
    perm = list(range(circuit.n_qubits))
    rng.shuffle(perm)
    out = QuantumCircuit(circuit.n_qubits, name=circuit.name)
    for gate in circuit.gates:
        out.append(Gate(gate.name, tuple(perm[q] for q in gate.qubits), gate.params))
    return out


def checked(result: SynthesisResult, circuit: QuantumCircuit, device: Any) -> SynthesisResult:
    """The result re-read against the benchmark's own circuit and device.

    Raises if it is partial (not proven) or breaks a layout constraint.
    """
    if not result.optimal:
        raise AssertionError("result is not proven optimal (partial)")
    own = dataclasses.replace(result, circuit=circuit, device=device)
    validate_result(own)
    return own


def refute(label: str, circuit: QuantumCircuit, device: Any,
           config: SynthesisConfig, depth: int, swaps: Optional[int] = None) -> None:
    """Check by RUP proof that no schedule beats ``depth`` (or, with
    ``swaps``, that none at ``depth`` uses fewer SWAPs)."""
    if swaps is None:
        bound = depth - 1
        if bound < 1:
            return
        cert = certify_bound(circuit, device, max(bound, circuit.depth()),
                             depth_bound=bound, config=config, time_budget=BUDGET)
    else:
        if swaps < 1:
            return
        cert = certify_bound(circuit, device, depth, depth_bound=depth,
                             swap_bound=swaps - 1, config=config, time_budget=BUDGET)
    claim = f"depth<={cert.depth_bound}" + (
        f" swaps<={cert.swap_bound}" if swaps is not None else "")
    if not cert.checked:
        raise AssertionError(f"refutation of {claim} not certified: {cert.reason}")
    print(f"certified {label}: {claim} refuted, {cert.proof_steps} proof steps "
          f"checked in {cert.check_time:.2f}s", file=sys.stderr)


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def start(self) -> None:
        """Build devices and long-lived state (before the warm-up pass)."""

    def inputs(self, rnd: int) -> List[Op]:
        raise NotImplementedError

    def run(self, ops: List[Op], call: Callable[[Callable[[], Any]], Any]) -> float:
        """Run one round's ops; ``call`` wraps each op (tracing hook).
        Returns the round's wall."""
        start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                op.result = call(lambda: self.execute(op))
            except Exception as exc:  # noqa: BLE001 - an op error is a failed op
                op.error = f"{type(exc).__name__}: {exc}"
            op.wall = time.perf_counter() - t0
        return time.perf_counter() - start

    def execute(self, op: Op) -> Any:
        raise NotImplementedError

    def check(self, op: Op) -> None:
        """Raise if ``op``'s output is wrong or unproven."""
        raise NotImplementedError

    def certify(self) -> List[str]:
        """Whole-run checks after the timed loop; returns failures."""
        return []

    def worker_pids(self) -> List[int]:
        return []

    def template_counts(self) -> Tuple[int, int]:
        return (0, 0)

    def coalesced(self) -> int:
        return 0

    def close(self) -> None:
        pass


class QuekoDepth(Workload):
    """Depth-optimal synthesis of QUEKO circuits, relabeled per op.

    The instances are fixed; the seed draws each op's qubit relabeling.
    A relabeling keeps the optimum but changes the search, so every op is
    new work for the solver while the run's total work stays steady.
    """

    name = "queko_depth"
    LINE = [("line", seed) for seed in range(1, 13)]
    LARGE = [(dev, seed) for dev in ("falcon", "sycamore", "eagle") for seed in (1, 2)]

    def start(self) -> None:
        line6, g23 = linear(6), grid(2, 3)
        targets = {
            "line": (line6, g23),          # SWAPs needed: relax phase grows the horizon
            "falcon": (ibm_falcon(), line6),  # heavy-hex regions are trees
            "sycamore": (google_sycamore(), g23),
            "eagle": (ibm_eagle(), line6),
        }
        line_cfg = SynthesisConfig(swap_duration=1, tub_ratio=1.0,
                                   time_budget=BUDGET, solve_time_budget=BUDGET)
        large_cfg = SynthesisConfig(swap_duration=1, time_budget=BUDGET,
                                    solve_time_budget=BUDGET, subarch="auto",
                                    warm_start="sabre")
        self.instances = []
        for dev, qseed in self.LINE + self.LARGE:
            device, source = targets[dev]
            gates = 12 if dev == "line" else 10
            inst = queko_circuit(source, depth=4, n_gates=gates, seed=qseed)
            cfg = line_cfg if dev == "line" else large_cfg
            self.instances.append((f"{dev}-s{qseed}", device, cfg, inst))
        # line-6 instance -> (depth reported by its first timed op, circuit)
        self.line_depth: Dict[str, Tuple[int, QuantumCircuit]] = {}

    def inputs(self, rnd: int) -> List[Op]:
        ops = []
        # The warm-up pass runs one instance per target device: that loads
        # every code path and device cache at a third of a round's cost.
        instances = self.instances if rnd >= 1 else [
            entry for entry in self.instances if entry[0].endswith("-s1")
        ]
        for label, device, cfg, inst in instances:
            rng = random.Random(f"{self.name}:{self.seed}:{rnd}:{label}")
            ops.append(Op(label, {"circuit": relabeled(inst.circuit, rng),
                                  "device": device, "config": cfg, "inst": inst,
                                  "round": rnd}))
        return ops

    def execute(self, op: Op) -> Any:
        p = op.payload
        return OLSQ2(p["config"]).synthesize(p["circuit"], p["device"], objective="depth")

    def check(self, op: Op) -> None:
        p = op.payload
        own = checked(op.result, p["circuit"], p["device"])
        optimum = p["inst"].optimal_depth
        if not op.kind.startswith("line"):
            if own.depth != optimum:
                raise AssertionError(f"depth {own.depth} != QUEKO optimum {optimum}")
            return
        # line-6 embeds in grid-2x3, so the grid optimum is a floor; the
        # exact optimum is proven by refutation in certify().
        if own.depth < optimum:
            raise AssertionError(f"depth {own.depth} below the QUEKO floor {optimum}")
        if p["round"] < 1:
            return
        first = self.line_depth.setdefault(op.kind, (own.depth, p["circuit"]))
        if own.depth != first[0]:
            raise AssertionError(
                f"depth {own.depth} differs from {first[0]} on a relabeling "
                "of the same instance"
            )

    def certify(self) -> List[str]:
        failures = []
        configs = {label: cfg for label, _dev, cfg, _inst in self.instances}
        for label, (depth, circuit) in sorted(self.line_depth.items()):
            try:
                refute(label, circuit, linear(6), configs[label], depth)
            except AssertionError as exc:
                failures.append(f"{label}: {exc}")
        return failures


class SwapDescent(Workload):
    """SWAP-optimal synthesis of one fixed instance (the seed is unused:
    one long search whose conflicts repeat exactly run to run)."""

    name = "swap_descent"
    LABEL = "queko-2x3-d6g18s1"

    def start(self) -> None:
        self.device = linear(6)
        self.config = SynthesisConfig(swap_duration=1, tub_ratio=1.0,
                                      time_budget=BUDGET, solve_time_budget=BUDGET)
        self.inst = queko_circuit(grid(2, 3), depth=6, n_gates=18, seed=1)
        # The warm-up pass runs the same flow on a small instance: it loads
        # the same code and caches at a fraction of the cost.
        self.warm = queko_circuit(grid(2, 3), depth=4, n_gates=12, seed=3)
        self.answer: Optional[Tuple[int, int]] = None

    def inputs(self, rnd: int) -> List[Op]:
        inst = self.inst if rnd >= 1 else self.warm
        return [Op(self.LABEL, {"circuit": inst.circuit, "inst": inst, "round": rnd})]

    def execute(self, op: Op) -> Any:
        return OLSQ2(self.config).synthesize(op.payload["circuit"], self.device,
                                             objective="swap")

    def check(self, op: Op) -> None:
        p = op.payload
        own = checked(op.result, p["circuit"], self.device)
        if own.depth < p["inst"].optimal_depth:
            raise AssertionError(f"depth {own.depth} below the QUEKO floor")
        if p["round"] < 1:
            return
        if self.answer is None:
            self.answer = (own.depth, own.swap_count)
        elif self.answer != (own.depth, own.swap_count):
            raise AssertionError(f"answer {own.depth, own.swap_count} != {self.answer}")

    def certify(self) -> List[str]:
        if self.answer is None:
            return []
        depth, swaps = self.answer
        try:
            refute(self.LABEL, self.inst.circuit, self.device, self.config, depth)
            refute(self.LABEL, self.inst.circuit, self.device, self.config, depth, swaps)
        except AssertionError as exc:
            return [f"{self.LABEL}: {exc}"]
        return []


class ServiceBatch(Workload):
    """Two closed-loop clients against one service with one fork worker.

    Per round each client sends, in order:

    * ``queko`` — a fresh QUEKO circuit on the service's device, the same
      one for both clients under different relabelings: one solve, and
      the other client's request coalesces onto it;
    * ``new`` — a fresh random circuit: a cold solve that fills the cache;
    * ``repeat`` — its previous round's ``new`` circuit, relabeled: a
      cache hit;
    * ``swap`` — that same previous circuit under the swap objective: a
      solve that restores the worker's encoded template.

    Six of the eight requests solve, so the median is clearly a solve.
    """

    name = "service_batch"
    DEVICE = "grid-2x3"

    def start(self) -> None:
        from repro.service import SynthesisService

        self.device = by_name(self.DEVICE)
        self.config = SynthesisConfig(swap_duration=1, time_budget=BUDGET,
                                      solve_time_budget=BUDGET).to_dict()
        self.loop = asyncio.new_event_loop()
        self.service = SynthesisService(n_workers=1)
        self.loop.run_until_complete(self.service.start())
        self.seen: set = set()
        self.previous: Dict[int, Op] = {}

    def _fresh(self, make: Callable[[int], QuantumCircuit], tag: str) -> QuantumCircuit:
        """A circuit no earlier request of this run has (up to relabeling)."""
        for attempt in range(1000):
            circuit = make(random.Random(f"{tag}:{attempt}").randrange(1 << 30))
            fingerprint = circuit_fingerprint(circuit)
            if fingerprint not in self.seen:
                self.seen.add(fingerprint)
                return circuit
        raise RuntimeError(f"no fresh circuit for {tag}")

    def _request(self, circuit: QuantumCircuit, objective: str) -> Any:
        from repro.service import CompileRequest

        return CompileRequest.from_circuit(circuit, self.DEVICE, objective=objective,
                                           budget=BUDGET, config=dict(self.config))

    def inputs(self, rnd: int) -> List[Op]:
        tag = f"{self.name}:{self.seed}:{rnd}"
        inst = None

        def make_queko(s: int) -> QuantumCircuit:
            nonlocal inst
            inst = queko_circuit(self.device, depth=3, n_gates=8, seed=s)
            return inst.circuit

        shared = self._fresh(make_queko, f"{tag}:queko")
        ops = []
        for client in (0, 1):
            rng = random.Random(f"{tag}:{client}")
            new = self._fresh(lambda s: random_circuit(5, 10, seed=s), f"{tag}:{client}:new")
            mine = [
                Op("queko", {"circuit": relabeled(shared, rng), "objective": "depth",
                             "optimum": inst.optimal_depth}),
                Op("new", {"circuit": new, "objective": "depth"}),
            ]
            before = self.previous.get(client)
            if before is not None:
                old = before.payload["circuit"]
                mine.append(Op("repeat", {"circuit": relabeled(old, rng),
                                          "objective": "depth", "class": before}))
                mine.append(Op("swap", {"circuit": old, "objective": "swap",
                                        "class": before}))
            self.previous[client] = mine[1]
            for op in mine:
                op.payload["client"] = client
                op.payload["request"] = self._request(op.payload["circuit"],
                                                      op.payload["objective"])
            ops.extend(mine)
        return ops

    def run(self, ops: List[Op], call: Callable[[Callable[[], Any]], Any]) -> float:
        # ``call`` goes unused: a traced request's op span comes from the
        # wrapped SynthesisService.submit, which owns the request's context.
        async def client(mine: List[Op]) -> None:
            for op in mine:
                t0 = time.perf_counter()
                op.result = await self.service.submit(op.payload["request"])
                op.wall = time.perf_counter() - t0
                if not op.result.ok:
                    op.error = op.result.error

        async def both() -> None:
            await asyncio.gather(*(client([op for op in ops if op.payload["client"] == c])
                                   for c in (0, 1)))

        start = time.perf_counter()
        self.loop.run_until_complete(both())
        return time.perf_counter() - start

    def check(self, op: Op) -> None:
        p = op.payload
        response = op.result
        if response.partial:
            raise AssertionError("partial response")
        own = checked(SynthesisResult.from_dict(response.result), p["circuit"], self.device)
        op.payload["answer"] = (own.depth, own.swap_count)
        if op.kind == "queko" and own.depth != p["optimum"]:
            raise AssertionError(f"depth {own.depth} != QUEKO optimum {p['optimum']}")
        if op.kind == "repeat" and op.payload["answer"] != p["class"].payload["answer"]:
            raise AssertionError(
                f"relabeled repeat answered {op.payload['answer']}, "
                f"its class {p['class'].payload['answer']}"
            )
        if op.kind == "swap":
            depth, swaps = p["class"].payload["answer"]
            if own.depth < depth or own.swap_count > swaps:
                raise AssertionError(
                    f"swap-objective answer {own.depth, own.swap_count} not within "
                    f"the depth-optimal one {depth, swaps}"
                )

    def worker_pids(self) -> List[int]:
        return [w["proc"].pid for w in self.service.pool._workers]

    def template_counts(self) -> Tuple[int, int]:
        return (self.service.pool.template_hits, self.service.pool.template_misses)

    def coalesced(self) -> int:
        return self.service.coalesced

    def close(self) -> None:
        self.loop.run_until_complete(self.service.stop())
        self.loop.close()


WORKLOADS = {cls.name: cls for cls in (QuekoDepth, SwapDescent, ServiceBatch)}

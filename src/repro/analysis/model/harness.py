"""The ``repro modelcheck`` harness: schemes, mutants, conformance, report.

Three sections, each optional from the CLI:

* **scheme verification** — exhaustively explore the model for each
  requested scheme and check every invariant, deadlock freedom, and
  fair termination;
* **mutation harness** — re-run the exploration with each seeded bug
  from :mod:`repro.analysis.model.mutations` injected and require that
  the checker rejects every one with a counterexample;
* **conformance** — shadow one seeded DES run per scheme against the
  model (see :mod:`repro.analysis.model.conformance`).

Everything lands in one :class:`ModelCheckReport` whose findings are
ordinary :class:`repro.analysis.findings.Finding` objects, so the shared
``--fail-on`` gate and the text/JSON reporters work unchanged and the
JSON artifact CI uploads carries the full counterexample traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.findings import Finding, Severity
from repro.analysis.model import specsync as _specsync_module
from repro.analysis.model.checker import CheckResult, explore
from repro.analysis.model.conformance import ConformanceReport, run_des_conformance
from repro.analysis.model.mutations import MUTATIONS, Mutation
from repro.analysis.model.specsync import SCHEMES, SpecSyncModel

__all__ = [
    "SchemeCheck",
    "MutantOutcome",
    "ModelCheckReport",
    "run_modelcheck",
]

#: Where model-level findings anchor: the protocol model is the spec.
_MODEL_PATH: str = _specsync_module.__file__ or "specsync.py"


@dataclass
class SchemeCheck:
    """One scheme's exhaustive verification result."""

    scheme: str
    result: CheckResult
    settings: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "scheme": self.scheme,
            "settings": self.settings,
            **self.result.to_dict(),
        }


@dataclass
class MutantOutcome:
    """Whether the checker rejected one seeded mutation."""

    mutation: Mutation
    caught: bool
    violations: List[str] = field(default_factory=list)
    counterexample: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "mutation": self.mutation.name,
            "description": self.mutation.description,
            "scheme": self.mutation.scheme,
            "expect": self.mutation.expect,
            "caught": self.caught,
            "violations": list(self.violations),
            "counterexample": list(self.counterexample),
        }


@dataclass
class ModelCheckReport:
    """Everything one ``repro modelcheck`` invocation produced."""

    schemes: List[SchemeCheck] = field(default_factory=list)
    mutants: List[MutantOutcome] = field(default_factory=list)
    conformance: List[ConformanceReport] = field(default_factory=list)

    @property
    def findings(self) -> List[Finding]:
        """Model-level defects as lint findings (for the shared gate)."""
        findings: List[Finding] = []
        for check in self.schemes:
            for violation in check.result.violations:
                findings.append(
                    Finding(
                        rule_id=f"MODEL-{violation.kind.upper().replace('_', '-')}",
                        severity=Severity.ERROR,
                        path=_MODEL_PATH,
                        line=1,
                        message=(
                            f"scheme {check.scheme}: {violation.name}: "
                            f"{violation.message} "
                            f"(counterexample: {len(violation.trace)} steps)"
                        ),
                    )
                )
            if check.result.truncated:
                findings.append(
                    Finding(
                        rule_id="MODEL-TRUNCATED",
                        severity=Severity.ERROR,
                        path=_MODEL_PATH,
                        line=1,
                        message=(
                            f"scheme {check.scheme}: exploration truncated at "
                            f"{check.result.states} states — verification incomplete"
                        ),
                    )
                )
        for outcome in self.mutants:
            if not outcome.caught:
                findings.append(
                    Finding(
                        rule_id="MODEL-MUTANT-SURVIVED",
                        severity=Severity.ERROR,
                        path=_MODEL_PATH,
                        line=1,
                        message=(
                            f"seeded mutation {outcome.mutation.name!r} "
                            f"({outcome.mutation.description}) was not "
                            f"rejected — expected {outcome.mutation.expect}"
                        ),
                    )
                )
        for report in self.conformance:
            for violation in report.violations:
                findings.append(
                    Finding(
                        rule_id="MODEL-CONFORMANCE",
                        severity=Severity.ERROR,
                        path=_MODEL_PATH,
                        line=1,
                        message=f"scheme {report.scheme} (DES run): {violation}",
                    )
                )
        return findings

    @property
    def ok(self) -> bool:
        """True when every section passed."""
        return not self.findings

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation, counterexample traces included."""
        return {
            "schemes": [c.to_dict() for c in self.schemes],
            "mutants": [m.to_dict() for m in self.mutants],
            "conformance": [c.to_dict() for c in self.conformance],
            "findings": [f.to_dict() for f in self.findings],
            "ok": self.ok,
        }

    def render_text(self) -> str:
        """Human-readable multi-section report."""
        lines: List[str] = []
        for check in self.schemes:
            result = check.result
            status = "ok" if result.ok else f"{len(result.violations)} violation(s)"
            lines.append(
                f"[{check.scheme}] {result.states} states, "
                f"{result.transitions} transitions, depth {result.depth}, "
                f"{result.terminal_states} terminal, "
                f"{result.elapsed_s:.2f}s: {status}"
            )
            for violation in result.violations:
                lines.append(violation.render())
            if result.truncated:
                lines.append(
                    f"  MODEL-TRUNCATED: exploration stopped at "
                    f"{result.states} states — verification incomplete"
                )
        if self.mutants:
            caught = sum(1 for m in self.mutants if m.caught)
            lines.append(f"mutation harness: {caught}/{len(self.mutants)} mutants rejected")
            for outcome in self.mutants:
                mark = "caught" if outcome.caught else "SURVIVED"
                detail = f" via {', '.join(outcome.violations)}" if outcome.violations else ""
                lines.append(f"  [{mark}] {outcome.mutation.name}{detail}")
                if outcome.caught and outcome.counterexample:
                    lines.extend(outcome.counterexample)
        for report in self.conformance:
            status = "conformant" if report.ok else f"{len(report.violations)} violation(s)"
            lines.append(
                f"conformance [{report.scheme}] seed {report.seed}: "
                f"{report.transitions_checked} transitions shadowed "
                f"({report.inserted_checks} checks inserted): {status}"
            )
            for violation in report.violations:
                lines.append(f"  {violation}")
        lines.append("modelcheck: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def _mutant_model(mutation: Mutation, num_workers: int, max_iterations: int) -> SpecSyncModel:
    """A model seeded with one mutation, sized so the bug is reachable."""
    return SpecSyncModel(
        num_workers=num_workers,
        scheme=mutation.scheme,
        # double-inflight needs two live windows, i.e. three iterations.
        max_iterations=max(max_iterations, 3),
        threshold=0.5 * num_workers,
        staleness_bound=0,  # tightest SSP bound — off-by-one surfaces fastest
        abort_budget=1,
        mutation=mutation.name,
    )


def run_mutation_harness(
    num_workers: int = 2, max_iterations: int = 3, max_states: int = 2_000_000
) -> List[MutantOutcome]:
    """Explore every seeded mutant; report which the checker rejected."""
    outcomes: List[MutantOutcome] = []
    for mutation in MUTATIONS:
        model = _mutant_model(mutation, num_workers, max_iterations)
        result = explore(model, max_states=max_states, max_violations=1)
        first = result.violations[0] if result.violations else None
        outcomes.append(
            MutantOutcome(
                mutation=mutation,
                caught=bool(result.violations),
                violations=[f"{v.kind} [{v.name}]" for v in result.violations],
                counterexample=list(first.trace) if first is not None else [],
            )
        )
    return outcomes


def run_modelcheck(
    schemes: Optional[Sequence[str]] = None,
    workers: int = 3,
    max_iterations: int = 2,
    abort_rate: float = 0.5,
    staleness_bound: int = 1,
    abort_budget: int = 1,
    max_states: int = 2_000_000,
    mutants: bool = False,
    conformance: bool = False,
    seed: int = 0,
) -> ModelCheckReport:
    """Run the requested modelcheck sections and collect one report."""
    report = ModelCheckReport()
    for scheme in schemes if schemes is not None else SCHEMES:
        model = SpecSyncModel(
            num_workers=workers,
            scheme=scheme,
            max_iterations=max_iterations,
            threshold=abort_rate * workers,
            staleness_bound=staleness_bound,
            abort_budget=abort_budget,
        )
        result = explore(model, max_states=max_states)
        report.schemes.append(
            SchemeCheck(
                scheme=scheme,
                result=result,
                settings={
                    "workers": workers,
                    "max_iterations": max_iterations,
                    "threshold": abort_rate * workers,
                    "staleness_bound": staleness_bound,
                    "abort_budget": abort_budget,
                },
            )
        )
    if mutants:
        report.mutants = run_mutation_harness(max_states=max_states)
    if conformance:
        for scheme in schemes if schemes is not None else SCHEMES:
            report.conformance.append(
                run_des_conformance(
                    scheme=scheme,
                    workers=workers,
                    seed=seed,
                    staleness_bound=staleness_bound,
                    abort_budget=abort_budget,
                    abort_rate=abort_rate,
                )
            )
    return report

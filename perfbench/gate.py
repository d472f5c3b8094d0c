"""Correctness gate applied by the benchmark to every operation's output.

An operation passes only if its schedule exists, has zero violations under
`check_schedule`, scores under `evaluate_objective` exactly the objective
the solver driver reported, and is within the requested gap of the
workload's reference optimum.  Everything else counts as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from workloads import GAP


@dataclass
class Verdict:
    reasons: list[str] = field(default_factory=list)
    objective: Optional[Fraction] = None
    gap: Optional[Fraction] = None  # (reference - exact objective) / |reference|

    @property
    def passed(self) -> bool:
        return not self.reasons


def judge(inst, lazy: bool, result: Optional[dict], reference: Fraction) -> Verdict:
    """Re-check one operation's result (the dict `op.py` writes) independently."""
    from pipesched import BuildOptions, Schedule, check_schedule, enumerate_batches, evaluate_objective

    verdict = Verdict()
    if result is None:
        verdict.reasons.append("operation produced no result")
        return verdict
    if result["status"] not in ("optimal", "gap_reached") or result["placements"] is None:
        verdict.reasons.append(f"status {result['status']}: {result['message']}")
        return verdict
    schedule = Schedule.from_raw(tuple(p) for p in result["placements"])
    catalog = enumerate_batches(inst)
    try:
        violations = check_schedule(inst, catalog, schedule, BuildOptions(capacity_lazy=lazy))
    except ValueError as exc:  # placement outside the catalog or the horizon
        verdict.reasons.append(f"schedule rejected: {exc}")
        return verdict
    if violations:
        verdict.reasons.append(f"{len(violations)} violation(s), first: {violations[0].message}")
    exact = evaluate_objective(inst, catalog, schedule)["total"]
    verdict.objective = exact
    if result["objective"] is None or Fraction(result["objective"]) != exact:
        verdict.reasons.append(f"reported objective {result['objective']} != exact {exact}")
    verdict.gap = (reference - exact) / abs(reference)
    if verdict.gap > Fraction(repr(GAP)) or verdict.gap < 0:
        verdict.reasons.append(f"objective {exact} is outside gap {GAP} of reference {reference}")
    return verdict

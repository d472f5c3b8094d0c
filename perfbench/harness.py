"""Runs operations in fresh interpreters and turns their output into records.

The operation process gets `PYTHONPATH` pointing at the checkout's `src`,
which its solver children inherit, so the default shim command works
without installing the package.  `PIPESCHED_SOLVER_CMD` is removed so that
every run uses that default command.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from gate import Verdict, judge

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OP_SCRIPT = HERE / "op.py"


def op_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("PIPESCHED_SOLVER_CMD", None)
    return env


@dataclass
class OpRecord:
    """One operation as measured from outside, after the correctness gate."""

    result: Optional[dict]
    error: str
    spawned: float  # CLOCK_MONOTONIC just before the process was started
    verdict: Verdict = field(default_factory=Verdict)
    lp_bytes: int = 0

    @property
    def e2e_s(self) -> float:
        return self.result["marks"]["solve_end"] - self.spawned

    @property
    def setup_s(self) -> float:
        return self.result["marks"]["setup_end"] - self.spawned

    @property
    def solve_s(self) -> float:
        return self.result["marks"]["solve_end"] - self.result["marks"]["setup_end"]

    def counts(self) -> dict[str, int]:
        """Exact, machine-independent counts of this operation."""
        r = self.result
        return {
            **r["counts"],
            "lp_io.lp_bytes": self.lp_bytes,
            "solver.rounds": max(1, len(r["rounds"])),
            "solver.rows_activated": sum(x["added_rows"] for x in r["rounds"]),
            "schedule.placements": len(r["placements"] or ()),
        }


def warm_up() -> None:
    """Load what the operation and its solver child import into the file cache; not timed."""
    from op import SHIM_IMPORTS

    subprocess.run([sys.executable, "-c", SHIM_IMPORTS], env=op_env(), check=True)


def run_op(instance: Path, lazy: bool, work_dir: Path, timeout: float, trace: bool = False) -> OpRecord:
    """Run `op.py` once; LP and solution files are removed afterwards."""
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    out_path = work_dir / "result.json"
    argv = [sys.executable, str(OP_SCRIPT), str(instance), "lazy" if lazy else "mono", str(work_dir), str(out_path)]
    argv += ["--trace"] if trace else []
    spawned = time.monotonic()
    proc = subprocess.Popen(
        argv, env=op_env(), start_new_session=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        _stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the solver child shares the group
        proc.communicate()
        record = OpRecord(None, f"timed out after {timeout:.0f} s", spawned)
    else:
        if proc.returncode != 0:
            record = OpRecord(None, f"exit {proc.returncode}: {stderr.strip()[-400:]}", spawned)
        else:
            record = OpRecord(json.loads(out_path.read_text(encoding="utf-8")), "", spawned)
            record.lp_bytes = sum(p.stat().st_size for p in work_dir.glob("*.lp"))
    shutil.rmtree(work_dir)
    return record


def gate(record: OpRecord, inst, lazy: bool, reference: Fraction) -> OpRecord:
    record.verdict = judge(inst, lazy, record.result, reference)
    if record.error:
        record.verdict.reasons.insert(0, record.error)
    return record


def count_failed(records: list[OpRecord]) -> int:
    return sum(1 for r in records if not r.verdict.passed)

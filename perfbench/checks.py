"""Output checks over workload records.

Each check returns a list of problems; an empty list means the record
passed.  ``run.py`` fails the run on any problem, and the selftest
feeds these functions deliberately corrupted records.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def _close(a: float, b: float) -> bool:
    """Equal up to float rounding (byte counts are integers)."""
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def check_record(record: Dict) -> List[str]:
    """Byte conservation, query accounting and the quality reference
    of one full workload record."""
    problems = []
    if not _close(record["by_kind_total"], record["sent_total"]):
        problems.append(
            f"bytes by kind sum to {record['by_kind_total']}, "
            f"but {record['sent_total']} were sent")
    window, queries = record["window_bytes"], record["query_bytes"]
    if queries > window and not _close(queries, window):
        problems.append(f"per-query bytes {queries} exceed the "
                        f"{window} sent in the query window")
    if record["bytes_equal_expected"] and not _close(queries, window):
        problems.append(f"per-query bytes {queries} differ from the "
                        f"{window} sent in the query window")
    if record["submitted"] != record["offered"]:
        problems.append(f"{record['submitted']} queries submitted, "
                        f"{record['offered']} generated")
    # Open loops: the jobs marked done must be the ones the runtime
    # counted as completed; every other job counts as failed.
    runtime_completed = record.get("runtime_completed")
    if runtime_completed is not None \
            and runtime_completed != record["completed"]:
        problems.append(f"{record['completed']} jobs done, but the "
                        f"runtime completed {runtime_completed}")
    if record["reference_docs"] != record["network_docs"]:
        problems.append(
            f"centralized reference indexes {record['reference_docs']} "
            f"documents, the peers hold {record['network_docs']}")
    if record["overlap_samples"] < 1:
        problems.append("no query had a centralized answer to compare")
    return problems


def check_same(records: Sequence[Dict], field: str) -> List[str]:
    """Records of one seed must agree on a digest ``field``."""
    values = {record[field] for record in records}
    if len(values) > 1:
        return [f"{field} differs across {len(records)} runs of one "
                f"seed: {sorted(values)}"]
    return []

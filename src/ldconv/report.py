"""Run reports: the JSON payload every CLI command writes."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path


@dataclass
class RunReport:
    """Command name, echoed config, optional timestamp, metrics, artifact paths.

    Seeded (reproducible) runs carry timestamp=None so that two identical
    invocations serialise to identical bytes.
    """

    command: str
    config: dict
    timestamp: str | None
    metrics: dict
    artifacts: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def save(self, path) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path


def now_stamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")

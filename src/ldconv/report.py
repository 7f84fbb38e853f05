"""Run reports: the JSON payload every CLI command writes."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class RunReport:
    """Command name, echoed config, metrics, artifact paths.

    No field holds the wall-clock time, so two identical invocations
    serialise to identical bytes.
    """

    command: str
    config: dict
    metrics: dict
    artifacts: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def save(self, path) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path

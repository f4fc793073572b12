"""Regenerate frozen.json: violation counts of the default seed's requests.

    python3 perfbench/freeze.py [workload ...]

Run only when the program's sampling is meant to change; the frozen counts
are what makes a "same results" claim checkable bit for bit.
"""

import json
import shutil
import sys

from worker import HERE  # noqa: F401  (puts src/ on sys.path and pins BLAS)
from workloads import DEFAULT_SEED, WORKLOADS


def freeze(name: str) -> list:
    wl = WORKLOADS[name]()
    workdir = HERE / "_run" / f"freeze-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl.setup(workdir, DEFAULT_SEED)
        return [wl.request(i)[1] for i in range(wl.frozen_requests)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(names) -> int:
    path = HERE / "frozen.json"
    frozen = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    for name in names or sorted(WORKLOADS):
        frozen[name] = freeze(name)
        print(f"{name}: {len(frozen[name])} requests frozen", file=sys.stderr)
    path.write_text(json.dumps(frozen, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Regenerate tests/golden/spl_summaries.json from the current analysis.

Run deliberately after an intentional change to what the SPL dataflow
computes::

    PYTHONPATH=src python -m tests.regen_spl_golden
"""

import json

from tests.test_lint_sweep import SPL_GOLDEN, spl_summaries_record


def main() -> None:
    with open(SPL_GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(spl_summaries_record(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {SPL_GOLDEN}")


if __name__ == "__main__":
    main()

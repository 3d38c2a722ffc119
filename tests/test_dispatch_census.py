"""The count of variant tests in the package: the ROADMAP's census of
variant dispatch (item 5), which may fall but must not grow."""

import re
from pathlib import Path

from beliefflow import belief as bel

# The ROADMAP's pattern: a comparison against a variant name, or an isinstance
# test on one of the variant-specific belief classes.
VARIANT_TEST = re.compile(r"variant ==|variant !=|isinstance\([^)]*(ActiveDiagonal|OwnedFull)")
# The count after flow.solve took its solver from a table and run_online came
# to check its config; lower it when dispatch goes away.
MAX_VARIANT_TESTS = 37


def test_variant_dispatch_does_not_spread():
    counts = {path.name: sum(1 for line in path.read_text().splitlines() if VARIANT_TEST.search(line))
              for path in sorted(Path(bel.__file__).parent.glob("*.py"))}
    total = sum(counts.values())
    assert total <= MAX_VARIANT_TESTS, (
        f"{total} variant tests in src/beliefflow (at most {MAX_VARIANT_TESTS}): ROADMAP item 5 "
        "asks that variant dispatch live in one place, not spread over the modules; per module: "
        + ", ".join(f"{name} {n}" for name, n in counts.items() if n))

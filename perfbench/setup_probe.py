"""Set-up probe: build the first learner of a workload in a fresh process.

    python3 perfbench/setup_probe.py CONFIG STAMP

Covers what every run pays before its first round: importing
beliefflow.harness, load_config, load_dataset, split_shuffle, build_model
and make_learner. Writes time.monotonic() at the end to STAMP; the parent
subtracts the instant it spawned this process.
"""

import sys
import time

import numpy as np

from beliefflow import data, harness


def main(config_path: str, stamp_path: str) -> None:
    config = harness.load_config(config_path)
    dataset = harness.load_dataset(config.dataset)
    data.split_shuffle(dataset, config.train_fraction, config.base_seed, shuffle=config.shuffle)
    spec = harness.build_model(config.model, dataset)
    harness.make_learner(config.learner, spec, np.random.default_rng(config.base_seed))
    done = time.monotonic()
    with open(stamp_path, "w", encoding="ascii") as fh:
        fh.write(repr(done))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

"""Each benchmark workload's ``result_digest`` for seeds 1-3, pinned.

The digest is formed as ``perfbench/run.py`` forms the one it prints: the
workload's ops from perfbench's own ``setup``, one ``run_pass`` over them
and ``common.result_digest`` of the outputs, and ``verify`` must find no
problem.  ``cli_corpus`` runs its corpus through ``cli.run`` in this
process, whose outputs hash as those of the ``comm-lab`` children do.  So
the exactness of every workload is checked whether or not ``perfbench/``
changes.  A change that moves a digest on purpose re-pins it and names
the change in CHANGES.md; ``PYTHONPATH=src python
tests/test_bench_digests.py`` prints the values.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import common  # noqa: E402
import run as bench  # noqa: E402

DIGESTS = {
    ("lamp_mix", 1): "ce7ed059246cb6c7ccf457686a2231ada94a7e4fb4e4d763ee1565ffd5280849",
    ("lamp_mix", 2): "20fa5f8fc1eb29f741833d279afc31d23cd1fa6e8e7f1de0f003d8276e71d309",
    ("lamp_mix", 3): "39d44332b06ed0ffcc0822fcdcb6fb7d48020d6f89d94c5165d9fdb4e9e7d343",
    ("lamp_large", 1): "12eb350482eaf3823560987d40fa64be921b88fd4751bcb8dabd843e0ae9ef2c",
    ("lamp_large", 2): "8136e8f22a1975aa8d881d63efada8b9d3dfd4a63d94755ddb1e91c9fce916c9",
    ("lamp_large", 3): "dd037caf119ba7d652157faa28f56d88d9c1bb7690d407e1433eb4ea57905be4",
    ("rational_mix", 1): "bc9ed2efe694f92c0f5ce9bca5caefdd663db70243d3dd28f8d379ac43c4ea2c",
    ("rational_mix", 2): "213cf9367e285e7bd762cf2026b0c88af26f9def2dd9caad3e44ab64ad547a8a",
    ("rational_mix", 3): "86061a0943be65456791150df273d69c2580dd38f393ccb23f1ab5b967c53120",
    ("cli_corpus", 1): "00a312bea92b5bc57589426082899d531623964171ec1c90caceed0d4dfa8f93",
    ("cli_corpus", 2): "a2a4593afd01e140917b37d82d734aa3624645ffe18866c1a4ad719604afb2a5",
    ("cli_corpus", 3): "3a483e8e4b5e46272f8cfa505a217acebd6d3360b2ad7e6e983ff856d71bb302",
}


def workload_digest(workload: str, seed: int):
    """(result_digest, the problems ``verify`` finds) of one pass; for
    cli_corpus, of the in-process ops that ``setup`` returns beside the
    child ones."""
    timed, inproc, _ = bench.setup(workload, seed)
    ops = inproc if workload == "cli_corpus" else timed
    _, outs, _ = bench.run_pass(ops)
    return common.result_digest(outs), [p for p in bench.verify(ops, outs) if p is not None]


@pytest.mark.parametrize("workload, seed", sorted(DIGESTS))
def test_workload_digest_is_pinned(workload, seed):
    digest, problems = workload_digest(workload, seed)
    assert problems == []
    assert digest == DIGESTS[workload, seed]


if __name__ == "__main__":
    for workload, seed in sorted(DIGESTS):
        print(workload, seed, *workload_digest(workload, seed))

"""Tier-1 names its host: the byte checks hold for the BLAS they ran on."""

import os

import numpy as np

from lawa import lanes


def pytest_report_header(config):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")}
    return [
        f"numpy {np.__version__}, BLAS {blas.get('name', '?')} {blas.get('version', '?')}",
        f"BLAS thread variables: {threads or 'none set'}; CPUs for lawa's lanes: "
        f"{lanes._cpu_count()}",
    ]

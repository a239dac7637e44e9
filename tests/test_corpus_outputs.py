"""Every bundled corpus config writes byte-identical outputs.

The reference SHA-256 of each output is the corpus table of
`benchmarks/expected.json`, keyed `<config file stem>/<output name>`; it is
read here and never written.
"""

import hashlib
import json
from pathlib import Path

import pytest

from rifslab import corpus_entries, load_corpus, run

EXPECTED = Path(__file__).resolve().parents[1] / "benchmarks" / "expected.json"
CORPUS = [(name, Path(filename).stem) for name, filename, _ in corpus_entries()]


@pytest.mark.parametrize("name, stem", CORPUS)
def test_corpus_output_hashes(name, stem, tmp_path):
    recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))["corpus"]
    expected = {key: digest for key, digest in recorded.items()
                if key.split("/")[0] == stem}
    assert expected, f"no recorded outputs for {stem}"
    out = tmp_path / stem
    written = run(load_corpus(name), str(out))
    got = {f"{stem}/{Path(p).relative_to(out).as_posix()}":
           hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in written}
    assert got == expected

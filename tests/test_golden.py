"""Golden checksums: a fixed seed must keep producing the same bytes.

The model files pin the training arithmetic (update order, lazy averaging,
best-epoch selection on a dev set): the v1 file, keyed by feature hash and
written by the reference writer, with the digest it had before models were
keyed by string, and the v2 file `save_model` writes of the same weights.
The report files pin the whole experiment grid. Any change that moves a
single float shows up here. The CoNLL-U digests pin the read, rewrite and
write path: the bytes `write_conllu` gives for a corpus under each
transformation. The v1 model and report digests were computed before the
perceptron hot path was rebuilt, the CoNLL-U digests before tokens became
named tuples; regenerate them only for a change that is meant to alter
results.
"""

import hashlib
import os

from udscheme.conllu import parse_conllu, write_conllu, write_conllu_file
from udscheme.harness import ExperimentConfig, TreebankSpec, emit_reports, run_experiment
from udscheme.parsing.perceptron import Hyperparameters, save_model, train
from udscheme.transform import Transformation, apply_transformation

from helpers import ref_save_model_v1
from synth import synth_corpus

# train(synth_corpus(8), synth_corpus(10, seed=999), epochs=4, seed=3):
# dev UAS per epoch is 85.7 / 89.8 / 87.8 / 89.8, so the epoch-2 snapshot is
# kept (a later tie does not replace it) and differs from the final weights.
MODEL_SHA256 = "cb6029688ecfa74fe023260de1c14a80536a4373ca52295355c20f5f669961be"
# the same model as save_model writes it (v2, keyed by feature string)
MODEL_V2_SHA256 = "f2d53b565fea0613d47f8b04be4a82d34aa49ef87e567482f7bdfc56a0e8f469"

REPORTS_SHA256 = {
    "hist.svg": "15c0e2743afe2e7ade95eef531bed78d2ed09bdb610443f873120b1d4a728c3a",
    "hist.tsv": "cf0313e2636836aac230eeacdd63f68fa4ba67345ab5c361c5d5b81e54de7d08",
    "rows.tsv": "71604a78f3007d2676b67a377a843b1ed77ac2a66d0764255787772a602ab097",
    "summary.json": "b5b27413f3d9c352dea2130c6fecfbb741d1feb7d727fc336635cf0fec1515e8",
    "tables/coherence.tsv": "75a35a5fcbe3477119bc92603d2744f91e5656c18b0c37c542b9e617dade0e72",
    "tables/top_negative.tsv": "d5c9eb728e1c42b18fc9b15a14faea3493d1e5bc891b1cb26b2db044ad82f779",
    "tables/top_positive.tsv": "363d8bc43c50e5f81bf4b1d436bfb7fabd0cf957398302b4302531e9b554f2ef",
    "tables/ud_wins.tsv": "ddbbe23847c23b4bebbe6401ad5ac7f20f10172fc1a94c910515a0d693ab62f9",
}

# write_conllu of synth_corpus(40), as given ("ud") and under each transformation
CONLLU_SHA256 = {
    "ud": "3e8a05e8f945b622c98fcfdfa6d046b565cecd34739f378b7a643231268893c7",
    "case": "eaf8827d728a08e12025ff1871d35c753ed95ac6af6fc9d4b530c1e5eedddc99",
    "mark": "6c817b9908f37d1824143477bdc9e5c275301c60e5a2139a07f983565c8c257f",
    "det": "a68e1c07eabc211867c2affe74a5da7f9d5f121f1e7cc1884ba8fb6161dca204",
    "mwe": "80e11209e7afd2912f9e248c5323681adc24f521c9f9fbe7f32fe750bf8266cb",
    # synth_corpus names have two tokens, already a chain: this scheme equals "ud"
    "name": "3e8a05e8f945b622c98fcfdfa6d046b565cecd34739f378b7a643231268893c7",
    "copula": "607dbb1b5119930fca8bf1cdea88e0fd703a54f6cc621ffea96c1dc256bf9bb6",
    "coordination": "bb5bf0121779fe09d35c3a571a44f308d0b34a6052c9d34d4ec32649a8a455bd",
}


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def test_golden_model_file(tmp_path):
    model = train(
        synth_corpus(8), synth_corpus(10, seed=999), Hyperparameters(epochs=4), seed=3
    )
    v1, v2 = str(tmp_path / "model-v1.txt"), str(tmp_path / "model-v2.txt")
    ref_save_model_v1(model, v1)
    save_model(model, v2)
    assert sha256_file(v1) == MODEL_SHA256
    assert sha256_file(v2) == MODEL_V2_SHA256


def test_golden_reports(tmp_path):
    splits = {}
    for split, n, seed in (("train", 12, 1000), ("dev", 4, 2000), ("test", 6, 3000)):
        splits[split] = str(tmp_path / ("xx-%s.conllu" % split))
        write_conllu_file(splits[split], synth_corpus(n, seed=seed))
    out_dir = str(tmp_path / "out")
    cfg = ExperimentConfig(
        treebanks=[TreebankSpec("xx", splits["train"], splits["dev"], splits["test"])],
        transformations=list(Transformation),
        seeds=[1, 2],
        hp=Hyperparameters(epochs=2),
        output_dir=out_dir,
    )
    report = run_experiment(cfg)
    assert not report.errors
    written = emit_reports(report, out_dir)
    got = {
        os.path.relpath(p, out_dir).replace(os.sep, "/"): sha256_file(p)
        for p in written
    }
    assert got == REPORTS_SHA256


def test_golden_conllu_schemes():
    corpus = synth_corpus(40)
    # read what was written, so the parse path is pinned too
    corpus = parse_conllu(write_conllu(corpus))
    schemes = {"ud": corpus}
    for t in Transformation:
        schemes[t.value] = apply_transformation(corpus, t).sentences
    got = {
        name: hashlib.sha256(write_conllu(s).encode("utf-8")).hexdigest()
        for name, s in schemes.items()
    }
    assert got == CONLLU_SHA256

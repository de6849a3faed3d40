"""Command-line entry points: transform, train, parse, metrics, evaluate,
experiment — as subcommands of a single `udscheme` executable.

Malformed input, unreadable files and invalid values are reported on one
stderr line, `udscheme: <file>:<line>: <message>` where the error has a file
and a line, with exit code 2."""

from __future__ import annotations

import argparse
import json
import sys

from .conllu import check_trees, format_conllu, read_conllu_file, read_trees, write_atomic
from .evaluate import LineupError, corpus_score
from .harness import emit_reports, load_config, run_experiment
from .metrics import compute_report, metric_dict
from .parsing.perceptron import Hyperparameters, load_model, parse, save_model, train
from .transform import COPULA_NOUN_LABELS, Transformation, apply_transformation


def _cmd_transform(args) -> int:
    sentences = read_trees(args.input)
    labels = args.copula_noun_labels
    noun_labels = frozenset(labels.split(",")) if labels else COPULA_NOUN_LABELS
    result = apply_transformation(sentences, Transformation(args.transformation), noun_labels)
    check_trees(result.sentences, args.input)  # refused at <input>:<line>
    write_atomic(args.output, format_conllu(result.sentences))
    print(json.dumps({"changed": result.changed, "arcs_rewritten": result.arcs_rewritten,
                      "repairs_applied": result.repairs_applied}))
    return 0


def _cmd_train(args) -> int:
    train_set = read_trees(args.train)
    dev_set = read_trees(args.dev) if args.dev else None
    hp = Hyperparameters(
        epochs=args.epochs, explore_k=args.explore_k, explore_p=args.explore_p
    )
    model = train(train_set, dev_set, hp, args.seed)
    save_model(model, args.model)
    return 0


def _cmd_parse(args) -> int:
    model = load_model(args.model)
    sentences = read_conllu_file(args.input)
    write_atomic(args.output, format_conllu([parse(model, s) for s in sentences]))
    return 0


def _cmd_metrics(args) -> int:
    corpus = read_trees(args.input)
    report = compute_report(
        corpus,
        corpus_id=args.input,
        perplexity_unit=args.perplexity_unit,
        complexity_scope=args.complexity_scope,
    )
    fields = metric_dict(report)
    if args.out == "json":
        print(json.dumps(fields))
    else:
        print("\t".join(fields))
        print("\t".join("" if v is None else str(v) for v in fields.values()))
    return 0


def _cmd_evaluate(args) -> int:
    gold = read_trees(args.gold)
    pred = read_conllu_file(args.pred)
    try:
        score, correct, total = corpus_score(gold, pred)
    except LineupError as e:
        raise ValueError("%s: %s in %s" % (args.pred, e, args.gold)) from None
    print(json.dumps({"uas": score, "correct": correct, "total": total}))
    return 0


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    report = run_experiment(cfg)
    emit_reports(report, cfg.output_dir)
    for lang, transfo, message in report.errors:
        print("error: %s/%s: %s" % (lang, transfo, message), file=sys.stderr)
    print(json.dumps(report.summary, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="udscheme")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="rewrite a treebank to an alternative scheme")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument(
        "--transformation",
        required=True,
        choices=[t.value for t in Transformation],
    )
    p.add_argument("--copula-noun-labels", help="comma-separated label override")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("train", help="train an arc-eager parser")
    p.add_argument("--train", required=True)
    p.add_argument("--dev")
    p.add_argument("--epochs", type=int, default=Hyperparameters.epochs)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--explore-k", type=int, default=Hyperparameters.explore_k)
    p.add_argument("--explore-p", type=float, default=Hyperparameters.explore_p)
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("parse", help="parse a treebank with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("metrics", help="learnability metrics for a treebank")
    p.add_argument("--input", required=True)
    p.add_argument("--out", choices=["json", "tsv"], default="json")
    p.add_argument("--perplexity-unit", choices=["form", "upos"], default="form")
    p.add_argument(
        "--complexity-scope", choices=["global", "per-sentence"], default="global"
    )
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("evaluate", help="UAS of a prediction against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("experiment", help="run a treebank x transformation grid")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_experiment)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:  # ValueError includes ConlluError
        filename = getattr(e, "filename", None)
        message = str(e) if filename is None else "%s: %s" % (filename, e.strerror)
        print("udscheme: %s" % message, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

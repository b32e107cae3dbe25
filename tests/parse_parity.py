"""Parse parity: one line per parse_article input, then one digest over all.

    python tests/parse_parity.py SRC_DIR

Imports seccite from SRC_DIR and parses two sets of inputs:

- the seed-7 articles of the two ingest bench corpora: small-articles (1,500
  default articles) and long-articles (400 articles with 60-120 references
  and structure IBLMMMRRRDDDC);
- a fixed, seeded set of mutations of those articles: truncation, splice,
  undefined entity, bad bytes, and a declaration that names another encoding;
- after them, the fixed documents of tests/jats_forms.py: JATS forms that
  synth never writes, and a document nested 200,000 elements deep.

Each line holds the input's index, its kind, and either the sha256 of
repr(parse_article(...)) or "ExceptionClass: message". The last line is the
sha256 of all lines before it. Run it on two source trees and diff the two
outputs to see which inputs a parser change parses differently.
"""

from __future__ import annotations

import hashlib
import random
import sys
import tempfile
from pathlib import Path

from jats_forms import FORMS

SEED = 7
PER_KIND = 80
ENCODINGS = (b"ISO-8859-1", b"windows-1252", b"US-ASCII", b"UTF-16", b"latin1")
DOCTYPES = (
    b"",
    b'<!DOCTYPE article SYSTEM "JATS-archivearticle1.dtd">\n',
    b'<!DOCTYPE article [<!ENTITY ext SYSTEM "ext.xml">]>\n',
)
BAD_BYTES = (b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\xe9")


def bench_articles(spec_type, generate_corpus) -> list[tuple[str, bytes]]:
    """(kind, bytes) for each article of the two ingest bench corpora."""
    specs = {
        "small": spec_type(seed=SEED, article_count=1500),
        "long": spec_type(seed=SEED, article_count=400, refs_per_article=(60, 120),
                          structure_mix={"IBLMMMRRRDDDC": 1.0}),
    }
    articles = []
    with tempfile.TemporaryDirectory() as tmp:
        for kind, spec in specs.items():
            truth = generate_corpus(spec, Path(tmp) / kind)
            articles.extend((kind, path.read_bytes()) for path in truth.files)
    return articles


def after_tag(doc: bytes, rng: random.Random) -> int:
    """A random offset just after a '>' of `doc`."""
    return rng.choice([i + 1 for i, byte in enumerate(doc) if byte == ord(">")])


def mutate(kind: str, doc: bytes, other: bytes, rng: random.Random) -> bytes:
    if kind == "truncate":
        return doc[:rng.randrange(len(doc))]
    if kind == "splice":
        start = rng.randrange(len(other))
        at = rng.randrange(len(doc) + 1)
        return doc[:at] + other[start:start + rng.randint(1, 200)] + doc[at:]
    if kind == "entity":
        doctype = rng.choice(DOCTYPES)
        entity = b"&ext;" if b"ENTITY" in doctype else rng.choice((b"&ndash;", b"&nbsp;"))
        at = after_tag(doc, rng)
        doc = doc[:at] + entity + doc[at:]
        root = doc.index(b"<article ")
        return doc[:root] + doctype + doc[root:]
    if kind == "bad-bytes":
        for _ in range(rng.randint(1, 3)):
            at = rng.choice((after_tag(doc, rng), rng.randrange(len(doc) + 1)))
            doc = doc[:at] + rng.choice(BAD_BYTES) + doc[at:]
        return doc
    if kind == "declaration":
        doc = doc.replace(b'encoding="UTF-8"', b'encoding="%s"' % rng.choice(ENCODINGS), 1)
        at = after_tag(doc, rng)
        return doc[:at] + "é, ø and ∑".encode("utf-8") + doc[at:]
    raise ValueError(kind)


def mutations(articles: list[tuple[str, bytes]]) -> list[tuple[str, bytes]]:
    rng = random.Random(SEED)
    out = []
    for kind in ("truncate", "splice", "entity", "bad-bytes", "declaration"):
        for _ in range(PER_KIND):
            (_, doc), (_, other) = rng.choice(articles), rng.choice(articles)
            out.append((kind, mutate(kind, doc, other, rng)))
    return out


def outcome(parse_article, data: bytes, source: str) -> str:
    try:
        parsed = parse_article(data, source)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(repr(parsed).encode("utf-8")).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/parse_parity.py SRC_DIR", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    import seccite
    from seccite.jats import parse_article
    from seccite.synth import CorpusSpec, generate_corpus

    if not Path(seccite.__file__).resolve().is_relative_to(src):
        print(f"seccite was imported from {seccite.__file__}, not {src}", file=sys.stderr)
        return 1
    articles = bench_articles(CorpusSpec, generate_corpus)
    digest = hashlib.sha256()
    forms = [(f"form-{name}", data) for name, data in FORMS.items()]
    for index, (kind, data) in enumerate(articles + mutations(articles) + forms):
        line = f"{index}\t{kind}\t{outcome(parse_article, data, f'input{index}.xml')}"
        print(line)
        digest.update(line.encode("utf-8") + b"\n")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

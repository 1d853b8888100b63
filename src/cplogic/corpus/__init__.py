"""Bundled example theories and stories, with machine-checked expectations.

The manifest records, for every entry, the probabilities and causation
verdicts the engine must reproduce; the test suite walks all of them.
"""

from __future__ import annotations

import json
from importlib import resources

from ..core import Record, Theory, setfield
from ..textio import StoryDocument, load_theory, parse_story


class ProbabilityCheck(Record):
    __slots__ = ("query", "context", "expect", "note")

    def __init__(self, query: str, context: tuple[str, ...], expect: str, note: str):
        setfield(self, "query", query)
        setfield(self, "context", context)
        setfield(self, "expect", expect)
        setfield(self, "note", note)


class CompleteCheck(Record):
    __slots__ = ("story", "cause", "effect", "expect", "note")

    def __init__(self, story: str, cause: str, effect: str, expect: bool, note: str):
        setfield(self, "story", story)
        setfield(self, "cause", cause)
        setfield(self, "effect", effect)
        setfield(self, "expect", expect)
        setfield(self, "note", note)


class PartialCheck(Record):
    __slots__ = ("outcome", "effect", "candidate", "expect", "note")

    def __init__(self, outcome: tuple[str, ...], effect: str, candidate: str, expect: str, note: str):
        setfield(self, "outcome", outcome)
        setfield(self, "effect", effect)
        setfield(self, "candidate", candidate)
        setfield(self, "expect", expect)
        setfield(self, "note", note)


class CorpusEntry(Record):
    __slots__ = ("name", "theory_file", "story_files", "probabilities", "complete", "partial")

    def __init__(self, name: str, theory_file: str, story_files: tuple[str, ...],
                 probabilities: tuple[ProbabilityCheck, ...], complete: tuple[CompleteCheck, ...],
                 partial: tuple[PartialCheck, ...]):
        setfield(self, "name", name)
        setfield(self, "theory_file", theory_file)
        setfield(self, "story_files", story_files)
        setfield(self, "probabilities", probabilities)
        setfield(self, "complete", complete)
        setfield(self, "partial", partial)


def read_text(filename: str) -> str:
    return resources.files(__package__).joinpath(filename).read_text(encoding="utf-8")


def theory(name: str) -> Theory:
    """Load and validate a bundled theory by entry name or file name."""
    filename = name if name.endswith(".cpl") else f"{name}.cpl"
    return load_theory(read_text(filename))


def story(filename: str, for_theory: Theory) -> StoryDocument:
    return parse_story(read_text(filename), for_theory)


def entries() -> tuple[CorpusEntry, ...]:
    raw = json.loads(read_text("manifest.json"))
    out = []
    for item in raw["entries"]:
        out.append(CorpusEntry(
            name=item["name"],
            theory_file=item["theory"],
            story_files=tuple(item["stories"]),
            probabilities=tuple(
                ProbabilityCheck(
                    p["query"], tuple(p["context"]), p["expect"], p["note"]
                )
                for p in item["probabilities"]
            ),
            complete=tuple(
                CompleteCheck(
                    c["story"], c["cause"], c["effect"], c["expect"], c["note"]
                )
                for c in item["complete"]
            ),
            partial=tuple(
                PartialCheck(
                    tuple(p["outcome"]), p["effect"], p["candidate"],
                    p["expect"], p["note"],
                )
                for p in item["partial"]
            ),
        ))
    return tuple(out)

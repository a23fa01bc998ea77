# reprolint-corpus: expect=RL202
"""Known-bad: a strategy flag (tree_repair-style) declared omit-when-unset
must default to None -- a concrete default would make the omission rule
never fire consistently, silently changing every existing cache key."""
import dataclasses


@dataclasses.dataclass(frozen=True)
class SampleConfig:
    HASH_OMIT_WHEN_UNSET = ("tree_repair",)

    tree_repair: str = "incremental"

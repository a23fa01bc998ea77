# reprolint-corpus: expect=RL105
"""Known-bad: a second owner of the cyclic collector's state."""
import gc
from gc import freeze


def fast_section(work):
    gc.disable()
    try:
        return work()
    finally:
        gc.enable()
        freeze()

"""Regular separability of VASS reachability languages from Dyck languages.

The package decides L(subject) | Dyck_n for an initialized VASS over a Dyck
alphabet: it unfolds the subject into initial DMGTS, one per path through its
strongly connected components, checks intersection emptiness, decomposes each
initial DMGTS into perfect and decided members, separates the integer approximations, and lifts the
separator. The semilinear toolkit (regular approximations, basic separators,
the concatenation-hard family) and the exact solver are usable on their own.
"""

__version__ = "0.1.0"

from .model import InitVass, Vass, Edge, GenConfig, Run, dyck_vas, dyck_alphabet
from .mgts import Dmgts, Mgts, PrecoveringGraph, initial_dmgts, initial_parts
from .decomposition import decompose
from .zsep import z_separability
from .driver import cmd_separate, cmd_reach

__all__ = [
    "InitVass", "Vass", "Edge", "GenConfig", "Run", "dyck_vas", "dyck_alphabet",
    "Dmgts", "Mgts", "PrecoveringGraph", "initial_dmgts", "initial_parts",
    "decompose", "z_separability", "cmd_separate", "cmd_reach",
]

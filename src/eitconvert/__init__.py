"""Memory-based coherent optical conversion in EIT media with Zeeman degeneracy.

The package models a write/store/read protocol in which a weak probe pulse is
stored as a ground-state coherence by switching off a write control, then
retrieved on a different transition by a read control, converting the pulse
between optical channels.  Degenerate Zeeman states make the medium a set of
parallel lambda subsystems weighted by the ground-state populations.

Layers:

- ``atoms``: Clebsch-Gordan tables, population distributions, conversion
  schemes (which transitions play probe/write/converted/read).
- ``theory``: closed-form channel parameters, broadening factors, converted
  spectra, and conversion efficiencies.
- ``spectral``: frequency-domain propagation of the exact linearized
  transfer functions.
- ``mb``: time-domain Maxwell-Bloch integration of the full protocol.
- ``pumping``: optical-pumping rate dynamics preparing the initial Zeeman
  populations.
- ``figures`` / ``cli``: canned scenario runners and the command line front
  end.
"""

# runner reads __version__, so it is bound before runner is imported.
__version__ = "0.1.0"

from . import (arrayio, atoms, cg, config, errors, figures, mb, pumping,
               runner, spectral, theory, units)
from .atoms import *  # noqa: F403
from .cg import *  # noqa: F403
from .errors import *  # noqa: F403
from .theory import *  # noqa: F403
from .units import *  # noqa: F403
from .arrayio import *  # noqa: F403
from .spectral import *  # noqa: F403
from .mb import *  # noqa: F403
from .pumping import *  # noqa: F403
from .config import *  # noqa: F403
from .runner import *  # noqa: F403
from .figures import *  # noqa: F403

# The public API is the union of the submodule lists.
__all__ = ["__version__"]
for _module in (atoms, cg, errors, theory, units, arrayio, spectral, mb,
                pumping, config, runner, figures):
    __all__ += _module.__all__
del _module

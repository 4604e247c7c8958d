"""Location of the model fixtures, independent of the working directory,
and the schemes that run as an incremental session."""

from pathlib import Path

from pltlbmc.check import SCHEMES

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

INCREMENTAL_SCHEMES = frozenset(name for name, scheme in SCHEMES.items() if scheme.style)

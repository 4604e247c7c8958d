"""Location of the model fixtures, independent of the working directory."""

from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

import sys
from pathlib import Path

# the benchmark imports the library from this checkout's src/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

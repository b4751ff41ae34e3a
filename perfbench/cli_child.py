"""Run ``idjc.cli`` with the span tracer installed and save the spans.

    python perfbench/cli_child.py SPANS.json run --scenario ... --out ...

Everything after SPANS.json is passed to ``idjc.cli.main`` unchanged; the
exit code is the CLI's.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import idjc.cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return idjc.cli.main(cli_argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

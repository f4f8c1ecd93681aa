"""Launch ``jackpine serve`` for the ``serve_browse`` workload.

    python3 perfbench/serve.py [--spans PATH] serve --port 0 ...

Everything after the launcher's own options is passed to the ``jackpine``
command line unchanged. With ``--spans PATH`` the launcher first installs
the benchmark's span wrappers (perfbench/tracer.py) in this process, and
when the server exits on SIGINT it writes the spans to ``PATH`` and the
server-side counters -- the database's ``Stats`` and the rows the engine
returned for requests the result cache did not answer -- to
``PATH.counters.json``.
"""

from __future__ import annotations

import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    # SIGINT is how the benchmark stops the server; a process started in
    # the background of a shell inherits it ignored
    signal.signal(signal.SIGINT, signal.default_int_handler)
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    import repro.cli
    import repro.service  # noqa: F401  (loaded so its names get wrapped)

    if spans_path is None:
        return repro.cli.main(argv)

    from repro.datagen.tiger import TigerDataset
    from repro.service.cache import CachedExecutor

    from perfbench.tracer import Recorder

    recorder = Recorder()
    recorder.install()
    databases = []
    counters = {"rows_returned": 0}
    load_into = TigerDataset.load_into
    execute = CachedExecutor.execute

    def capture_database(self, db, *args, **kwargs):
        databases.append(db)
        return load_into(self, db, *args, **kwargs)

    def count_rows(self, *args, **kwargs):
        result = execute(self, *args, **kwargs)
        if not result[3]:  # not answered from the result cache
            counters["rows_returned"] += len(result[1])
        return result

    TigerDataset.load_into = capture_database
    CachedExecutor.execute = count_rows
    try:
        return repro.cli.main(argv)
    finally:
        TigerDataset.load_into = load_into
        CachedExecutor.execute = execute
        recorder.uninstall()
        recorder.write(spans_path)
        if databases:
            counters.update(databases[0].stats.snapshot())
        with open(spans_path + ".counters.json", "w") as out:
            json.dump(counters, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

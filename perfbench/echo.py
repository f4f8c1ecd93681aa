"""Echo process for ``serve_browse``'s round-trip probe.

    python3 perfbench/echo.py

Listens on 127.0.0.1 (a free port, printed on the first line), accepts
one connection and sends back every byte it receives until the peer
closes. It uses nothing of the program.
"""

from __future__ import annotations

import socket
import sys


def main() -> int:
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        print(listener.getsockname()[1], flush=True)
        conn, _ = listener.accept()
    with conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while True:
            data = conn.recv(4096)
            if not data:
                return 0
            conn.sendall(data)


if __name__ == "__main__":
    sys.exit(main())

"""A byte-recording TCP proxy for differential capture tests."""

from __future__ import annotations

import socket
import threading


class Tap:
    """Forwards one client connection to (host, port), recording the raw
    bytes of both directions."""

    def __init__(self, upstream_host: str, upstream_port: int):
        self.upstream = (upstream_host, upstream_port)
        self.client_to_server = bytearray()
        self.server_to_client = bytearray()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.port = self._listener.getsockname()[1]
        self._sockets: list[socket.socket] = []
        self._threads: list[threading.Thread] = []
        thread = threading.Thread(target=self._accept, daemon=True)
        thread.start()
        self._threads.append(thread)

    def _accept(self) -> None:
        try:
            client, _ = self._listener.accept()
        except OSError:
            return
        server = socket.create_connection(self.upstream)
        self._sockets += (client, server)
        for src, dst, sink in (
            (client, server, self.client_to_server),
            (server, client, self.server_to_client),
        ):
            thread = threading.Thread(target=self._pump, args=(src, dst, sink), daemon=True)
            thread.start()
            self._threads.append(thread)

    @staticmethod
    def _pump(src: socket.socket, dst: socket.socket, sink: bytearray) -> None:
        """Copy one direction. An EOF is passed on as a half-close, as TCP
        does: the other direction may still carry a reply. An error ends
        both directions."""
        try:
            while True:
                chunk = src.recv(4096)
                if not chunk:
                    _shutdown(dst, socket.SHUT_WR)
                    return
                sink += chunk
                dst.sendall(chunk)
        except OSError:
            _shutdown(src)
            _shutdown(dst)

    def close(self) -> None:
        """Stop forwarding, wait for the threads, then close every socket."""
        _shutdown(self._listener)
        self._threads[0].join(timeout=5)  # the accept thread registers the pair
        for sock in self._sockets:
            _shutdown(sock)
        for thread in self._threads[1:]:
            thread.join(timeout=5)
        for sock in (self._listener, *self._sockets):
            sock.close()


def _shutdown(sock: socket.socket, how: int = socket.SHUT_RDWR) -> None:
    try:
        sock.shutdown(how)
    except OSError:
        pass

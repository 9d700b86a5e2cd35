"""The service workload's HTTP traffic over an abstract Unix socket.

A benchmark sandbox often runs in a network namespace whose loopback
interface is down: the daemon can still bind 127.0.0.1, but every
connection to it fails with "Network is unreachable".  So the daemon's HTTP
server listens on a Unix socket in the abstract namespace (no file, no
length limit from the checkout's path) and the load generator's HTTP
connections go there.  Requests still pass through the daemon's own HTTP
server, handler, job queue and settlement; only the socket family differs.

A client reaches a daemon through :class:`repro.service.ServiceClient` with
``base_url(name)``; :func:`install_client` routes connections to such hosts
to the socket and leaves every other host on TCP.
"""

from __future__ import annotations

import http.client
import socket
import socketserver

#: Host-name prefix that marks a daemon listening on an abstract socket.
PREFIX = "perfbench-"


def socket_name(tag: str) -> str:
    return f"{PREFIX}{tag}"


def base_url(name: str) -> str:
    return f"http://{name}"


def unix_server(server_class: type, name: str) -> type:
    """``server_class`` listening on the abstract socket ``name``.

    The daemon constructs its server with ``(host, port)``; the returned
    class ignores that address.
    """

    class UnixServer(server_class):
        address_family = socket.AF_UNIX

        def __init__(self, _address, handler) -> None:
            super().__init__("\0" + name, handler)

        def server_bind(self) -> None:
            # HTTPServer.server_bind splits the address into host and port
            # and resolves the host name; a Unix socket has neither.
            socketserver.TCPServer.server_bind(self)
            self.server_name, self.server_port = "localhost", 0

    return UnixServer


class _Connection(http.client.HTTPConnection):
    def connect(self) -> None:
        if not self.host.startswith(PREFIX):
            super().connect()
            return
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not socket._GLOBAL_DEFAULT_TIMEOUT:
            sock.settimeout(self.timeout)
        try:
            sock.connect("\0" + self.host)
        except OSError:
            sock.close()
            raise
        self.sock = sock


def install_client() -> None:
    """Send this process's HTTP connections to daemon hosts over their sockets."""
    http.client.HTTPConnection = _Connection

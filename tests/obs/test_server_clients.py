"""AdminServer against misbehaving clients: idle, stalled and vanished ones."""

from __future__ import annotations

import socket
import time
import urllib.request

import pytest

from repro.obs import server as admin_server
from repro.obs.server import AdminServer


def _connect(admin: AdminServer) -> socket.socket:
    return socket.create_connection((admin.host, admin.port), timeout=5)


@pytest.mark.parametrize("sent", [b"", b"GET /metr"], ids=["silent", "half-request-line"])
def test_stop_does_not_wait_for_an_idle_client(sent: bytes) -> None:
    admin = AdminServer().start()
    client = _connect(admin)
    try:
        client.sendall(sent)
        # Let the accept loop hand the connection to a handler thread.
        time.sleep(0.2)
        began = time.perf_counter()
        admin.stop()
        assert time.perf_counter() - began < 1.0
        assert not admin.running
    finally:
        client.close()


def test_idle_client_is_closed_after_the_read_timeout(monkeypatch: pytest.MonkeyPatch) -> None:
    assert admin_server._Handler.timeout, "handlers must not wait forever for a request"
    monkeypatch.setattr(admin_server._Handler, "timeout", 0.2)
    with AdminServer() as admin:
        client = _connect(admin)
        try:
            assert client.recv(1024) == b""  # server hung up, no response
        finally:
            client.close()
        # The server still answers the next scraper.
        with urllib.request.urlopen(admin.url + "/", timeout=5) as response:
            assert response.status == 200


@pytest.mark.parametrize("error", [BrokenPipeError(), ConnectionResetError(), TimeoutError()])
def test_client_disconnects_are_not_reported(error: Exception, capsys: pytest.CaptureFixture[str]) -> None:
    with AdminServer() as admin:
        try:
            raise error
        except OSError:
            admin._httpd.handle_error(None, ("127.0.0.1", 0))
    assert capsys.readouterr().err == ""


def test_other_handler_errors_are_still_reported(capsys: pytest.CaptureFixture[str]) -> None:
    with AdminServer() as admin:
        try:
            raise ValueError("handler bug")
        except ValueError:
            admin._httpd.handle_error(None, ("127.0.0.1", 0))
    assert "ValueError: handler bug" in capsys.readouterr().err

//! A disk-backed replica behind a stable TCP endpoint — the chaos
//! harnesses' stand-in for a service VIP. Accepted connections are
//! relayed byte-for-byte to the server currently behind the endpoint,
//! and refused (accept + drop) while none is up, so a replica "process"
//! can die and come back without changing the address probers and
//! clients watch.

use fj_net::Server;
use fj_runtime::RecoveryReport;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// A replica that can be hard-killed and restarted from its data
/// directory without its address changing. See the module docs.
pub(crate) struct Restartable<'a> {
    addr: SocketAddr,
    server: Arc<Mutex<Option<Server>>>,
    build: Box<dyn Fn() -> Server + Send + Sync + 'a>,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
}

impl<'a> Restartable<'a> {
    /// Starts the endpoint with `build()` behind it; every restart
    /// calls `build` again.
    pub(crate) fn start(build: impl Fn() -> Server + Send + Sync + 'a) -> Restartable<'a> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("forwarder bind");
        let addr = listener.local_addr().expect("forwarder addr");
        let server = Arc::new(Mutex::new(Some(build())));
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("fj-chaos-fwd".into())
                .spawn(move || {
                    let mut relays: Vec<JoinHandle<()>> = Vec::new();
                    for accepted in listener.incoming() {
                        // `stop` wakes this blocking accept by connecting.
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(client) = accepted else {
                            break;
                        };
                        let target = server
                            .lock()
                            .expect("replica cell lock")
                            .as_ref()
                            .map(Server::local_addr);
                        let upstream = target.and_then(|t| {
                            TcpStream::connect_timeout(&t, Duration::from_millis(500)).ok()
                        });
                        match upstream {
                            // A dead backend is a dead replica: drop the
                            // connection so the caller sees a transport
                            // error.
                            None => drop(client),
                            Some(upstream) => relays.push(spawn_relay(client, upstream)),
                        }
                    }
                    for r in relays {
                        let _ = r.join();
                    }
                })
                .expect("spawn forwarder")
        };
        Restartable {
            addr,
            server,
            build: Box::new(build),
            stop,
            accept,
        }
    }

    /// The stable address clients and probers connect to.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn cell(&self) -> MutexGuard<'_, Option<Server>> {
        self.server.lock().expect("replica cell lock")
    }

    /// `f` of the server behind the endpoint; `None` between a crash
    /// and the restart.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&Server) -> R) -> Option<R> {
        self.cell().as_ref().map(f)
    }

    /// Hard kill: connections are refused from here on and the server
    /// dies without a checkpoint.
    pub(crate) fn crash(&self) {
        let server = self.cell().take();
        server.expect("server present").abort();
    }

    /// Restart ≡ recover: `Store::open` replays the WAL's committed
    /// work in place, healing every torn page from its logged image.
    pub(crate) fn restart(&self) -> RecoveryReport {
        let server = (self.build)();
        let report = server
            .recovery_report()
            .expect("disk replica has a recovery report");
        *self.cell() = Some(server);
        report
    }

    /// Graceful shutdown of the server and the endpoint.
    pub(crate) fn stop(self) {
        if let Some(server) = self.cell().take() {
            server.shutdown();
        }
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
    }
}

/// One half-duplex pump: bytes from `from` to `to` until EOF or an
/// error. It then shuts both sockets down, which ends the opposite
/// pump's read as well, so a relay lasts exactly as long as both of its
/// connections.
fn pump(mut from: &TcpStream, mut to: &TcpStream) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

/// Full-duplex relay between `client` and `upstream`: one thread per
/// direction, both torn down when either side closes. A server that
/// shuts down or is killed closes its side, so no relay outlives it.
fn spawn_relay(client: TcpStream, upstream: TcpStream) -> JoinHandle<()> {
    thread::Builder::new()
        .name("fj-chaos-relay".into())
        .spawn(move || {
            thread::scope(|scope| {
                scope.spawn(|| pump(&upstream, &client));
                pump(&client, &upstream);
            });
        })
        .expect("spawn relay")
}

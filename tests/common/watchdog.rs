//! The watchdog of the suites that drive real transports: a lost shutdown
//! or an unnoticed dead socket hangs a test instead of failing it.

use std::time::Duration;

/// How long a test body may run before it counts as hung.
const WATCHDOG: Duration = Duration::from_secs(120);

/// Run `body` on its own thread and fail loudly if it neither returns nor
/// panics within the watchdog interval.
pub fn with_watchdog<F: FnOnce() + Send + 'static>(body: F) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        body();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(WATCHDOG) {
        Ok(()) => handle.join().expect("test body panicked after completing"),
        Err(_) => match handle.is_finished() {
            // The body panicked: propagate the original failure.
            true => handle.join().expect("test body panicked"),
            false => panic!("test body hung for {WATCHDOG:?} — the transport wedged"),
        },
    }
}

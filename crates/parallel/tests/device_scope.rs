//! The device-scope contract: a scope returns only after every job has
//! ended and dropped what it captured (also when its body panics), a
//! panicking job is counted and its thread parks for the next scope, and no
//! job ever waits in a queue behind another.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, Mutex, PoisonError};
use std::thread::ThreadId;
use std::time::Duration;

use edvit_parallel::{device_scope, device_threads_started};

/// Serializes this file's scopes: device threads are a process-wide
/// resource, and some tests check which parked thread a job lands on.
static SCOPES: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SCOPES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `test` on a thread of its own and fails if it is still running
/// after 60 s.
fn within_watchdog<T: Send + 'static>(test: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(test());
    });
    finished
        .recv_timeout(Duration::from_secs(60))
        .expect("still running after 60 s: deadlock")
}

/// Sets its flag when dropped: shows a job's captures were dropped.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// A job that ends only after `body_done` hangs up — the body drops it as it
/// returns or unwinds — and then a little later, so a scope that stopped
/// waiting would be seen returning first. It drops `capture` as it ends.
fn outliving_job<'a>(
    body_done: mpsc::Receiver<()>,
    capture: SetOnDrop<'a>,
    ended: &'a AtomicUsize,
) -> impl FnOnce() + Send + 'a {
    move || {
        let _capture = capture;
        assert!(body_done.recv().is_err(), "the body sends nothing");
        std::thread::sleep(Duration::from_millis(20));
        ended.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn the_scope_returns_only_after_every_job_has_ended_and_dropped_its_captures() {
    let _serial = serial();
    let ended = AtomicUsize::new(0);
    let dropped = [AtomicBool::new(false), AtomicBool::new(false)];
    let ((), panicked) = device_scope(|scope| {
        let mut body_done = Vec::new();
        for flag in &dropped {
            let (done, wait) = mpsc::channel();
            body_done.push(done);
            scope
                .spawn(outliving_job(wait, SetOnDrop(flag), &ended))
                .unwrap();
        }
        assert_eq!(ended.load(Ordering::SeqCst), 0);
        drop(body_done);
    });
    assert_eq!(panicked, 0);
    assert_eq!(ended.load(Ordering::SeqCst), 2);
    assert!(dropped.iter().all(|flag| flag.load(Ordering::SeqCst)));
}

#[test]
fn a_panicking_body_still_waits_for_every_job_before_unwinding() {
    let _serial = serial();
    let ended = AtomicUsize::new(0);
    let dropped = AtomicBool::new(false);
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        device_scope(|scope| {
            // Dropped as the panic unwinds the body.
            let (_body_done, wait) = mpsc::channel::<()>();
            scope
                .spawn(outliving_job(wait, SetOnDrop(&dropped), &ended))
                .unwrap();
            panic!("the body blew up");
        })
    }));
    let payload = unwound.unwrap_err();
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"the body blew up"));
    assert_eq!(
        ended.load(Ordering::SeqCst),
        1,
        "the scope unwound before its job ended"
    );
    assert!(
        dropped.load(Ordering::SeqCst),
        "the job's captures outlived the scope"
    );
}

#[test]
fn a_panicking_job_is_counted_and_its_thread_runs_the_next_scopes_job() {
    let _serial = serial();
    let threads: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    let record = || threads.lock().unwrap().push(std::thread::current().id());
    let ((), panicked) = device_scope(|scope| {
        scope
            .spawn(|| {
                record();
                panic!("job blew up");
            })
            .unwrap();
    });
    assert_eq!(panicked, 1);
    let started = device_threads_started();
    let ((), panicked) = device_scope(|scope| scope.spawn(record).unwrap());
    assert_eq!(panicked, 0);
    assert_eq!(
        device_threads_started(),
        started,
        "the next job started a thread"
    );
    let threads = threads.into_inner().unwrap();
    assert_eq!(threads.len(), 2);
    assert_eq!(
        threads[0], threads[1],
        "the panicked job's thread ran the next job"
    );
    assert_ne!(threads[0], std::thread::current().id());
}

#[test]
fn two_jobs_that_wait_on_each_other_both_finish() {
    // Each job blocks until the other has started: two jobs queued on one
    // thread would never finish.
    let _serial = serial();
    let threads = within_watchdog(|| {
        let met = Barrier::new(2);
        let threads = Mutex::new(Vec::new());
        let ((), panicked) = device_scope(|scope| {
            for _ in 0..2 {
                scope
                    .spawn(|| {
                        threads.lock().unwrap().push(std::thread::current().id());
                        met.wait();
                    })
                    .unwrap();
            }
        });
        assert_eq!(panicked, 0);
        threads.into_inner().unwrap()
    });
    assert_eq!(threads.len(), 2);
    assert_ne!(threads[0], threads[1]);
}

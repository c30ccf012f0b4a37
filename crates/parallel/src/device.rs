//! Device threads: the outer loop's OS threads, kept warm between scopes.
//!
//! [`device_scope`] works like [`std::thread::scope`], except that each
//! [`DeviceScope::spawn`] runs its job on a parked device thread — or on a
//! new one when none is idle — and never in a queue behind another job: a
//! device job may block until a peer job or the scope's body reads what it
//! sent (a full lane, a TCP send), and a job queued behind a blocked one
//! could never start. A finished job's thread parks in a process-wide idle
//! list, so a round pays for a hand-off, not a thread spawn.
//!
//! The scope returns only after every job has ended and dropped what it
//! captured, also when the body unwinds; that is what lets a job borrow from
//! the caller's stack, the argument [`ParallelPool`](crate::ParallelPool)'s
//! regions rest on too. A job that panics is counted — [`device_scope`]
//! returns the count beside the body's value — and its thread parks again.

use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::Thread;

/// One job with its borrows erased, and the scope it reports to.
struct Job {
    work: Box<dyn FnOnce() + Send>,
    scope: Arc<ScopeData>,
}

/// What a scope's owner waits on.
struct ScopeData {
    /// Jobs dispatched and not yet ended.
    running: AtomicUsize,
    /// Jobs that ended by panicking.
    panicked: AtomicUsize,
    /// The thread inside [`device_scope`], unparked by the last job to end.
    owner: Thread,
}

impl ScopeData {
    /// Reports one job ended; its closure has already been dropped.
    fn finish(&self, panicked: bool) {
        if panicked {
            self.panicked.fetch_add(1, Ordering::Relaxed);
        }
        // Release pairs with the owner's Acquire load: everything the job
        // wrote, its panic count included, is visible once it reads zero.
        if self.running.fetch_sub(1, Ordering::Release) == 1 {
            self.owner.unpark();
        }
    }
}

/// A scope to spawn device jobs in; see [`device_scope`].
pub struct DeviceScope<'scope, 'env: 'scope> {
    data: Arc<ScopeData>,
    /// Invariant over `'scope` and `'env`, as [`std::thread::Scope`] is.
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

/// Runs `body` with a [`DeviceScope`] whose jobs may borrow anything that
/// outlives this call, and returns the body's value with the number of jobs
/// that panicked. It returns only once every job spawned in the scope has
/// ended and dropped what it captured; when `body` unwinds, it waits the
/// same way and then resumes the unwind.
///
/// Wait-for rule: a job that blocks until the body reads from it (a full
/// lane, a TCP send) ends only if the body reads it, or drops what it would
/// write to, before returning.
pub fn device_scope<'env, F, T>(body: F) -> (T, usize)
where
    F: for<'scope> FnOnce(&'scope DeviceScope<'scope, 'env>) -> T,
{
    let scope = DeviceScope {
        data: Arc::new(ScopeData {
            running: AtomicUsize::new(0),
            panicked: AtomicUsize::new(0),
            owner: std::thread::current(),
        }),
        scope: PhantomData,
        env: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| body(&scope)));
    // `park` may return spuriously or for an old token; the count decides.
    while scope.data.running.load(Ordering::Acquire) != 0 {
        std::thread::park();
    }
    match result {
        Ok(value) => (value, scope.data.panicked.load(Ordering::Relaxed)),
        Err(payload) => resume_unwind(payload),
    }
}

impl<'scope> DeviceScope<'scope, '_> {
    /// Runs `job` on a parked device thread, or on a new one when none is
    /// idle. The job runs under the thread's default kernel budget; a job
    /// that is one of several sibling devices claims its share with
    /// [`with_fair_share`](crate::with_fair_share).
    ///
    /// # Errors
    ///
    /// Returns the OS error when no device thread is parked and none can be
    /// started; `job` has then been dropped without running.
    pub fn spawn<F>(&'scope self, job: F) -> std::io::Result<()>
    where
        F: FnOnce() + Send + 'scope,
    {
        let work: Box<dyn FnOnce() + Send + 'scope> = Box::new(job);
        // SAFETY: only the lifetime changes. `device_scope` does not return
        // — not even by unwinding — until `running` is back to zero, and a
        // device thread decrements it only after `work` has run and been
        // dropped (`dispatch` drops it before returning an error, and the
        // count is then taken back below). So nothing `work` borrows for
        // `'scope` is used after the scope ends.
        let work = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(work)
        };
        self.data.running.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            work,
            scope: Arc::clone(&self.data),
        };
        dispatch(job).inspect_err(|_| {
            self.data.running.fetch_sub(1, Ordering::Relaxed);
        })
    }
}

/// Job inboxes of the device threads parked right now. Every update is one
/// `push` or `pop`, so the list is valid even if a holder panicked.
static IDLE: Mutex<Vec<Sender<Job>>> = Mutex::new(Vec::new());

/// Device threads started so far in this process.
static STARTED: AtomicUsize = AtomicUsize::new(0);

/// How many device threads this process has started — a statistic: tests
/// use it to show that sequential scopes reuse their parked threads.
pub fn device_threads_started() -> usize {
    STARTED.load(Ordering::Relaxed)
}

/// Starts `job` on a parked device thread, or on a new one.
fn dispatch(job: Job) -> std::io::Result<()> {
    let parked = IDLE.lock().unwrap_or_else(PoisonError::into_inner).pop();
    if let Some(inbox) = parked {
        // A parked thread holds its own inbox, so it never hangs up.
        return inbox
            .send(job)
            .map_err(|_| std::io::Error::other("a parked device thread is gone"));
    }
    let (inbox, jobs) = mpsc::channel::<Job>();
    let _ = inbox.send(job);
    // Detached on purpose: the thread serves jobs until the process exits.
    // Each job's panic is caught and counted, and the thread parks itself
    // again *before* reporting the job ended, so the owner's next scope
    // finds it idle.
    std::thread::Builder::new()
        .name("edvit-device".to_string())
        .spawn(move || {
            for Job { work, scope } in &jobs {
                let finished = catch_unwind(AssertUnwindSafe(work)).is_ok();
                IDLE.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(inbox.clone());
                scope.finish(!finished);
            }
        })?;
    STARTED.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

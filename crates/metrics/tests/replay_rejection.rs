//! A fold counts exactly one run of its family. A journal that holds two —
//! or an event of the family outside its `*Started` … `*Ended` — used to
//! replay `Ok` to a silent mixture of both; it must be a
//! [`MetricsError::Replay`] naming the out-of-place event, from the journal's
//! text as much as from its records.

use edvit_metrics::{MetricsError, Result, RunJournal};

/// Two requests of one tenant in one round that completes at 10 s.
const SERVE_DRILL: &str = "\
t=0 ServeStarted tenants=1 capacity=2 initial_depth=1 offered_rate=1
t=0 RequestAdmitted tenant=0 id=0
t=0 RequestDispatched tenant=0 id=0 arrival=0
t=0 RequestAdmitted tenant=0 id=1
t=0 RequestDispatched tenant=0 id=1 arrival=0
t=0 ServeRound round=0 start=0 completion=10 size=2
t=10 ServeEnded
";

/// One request in one round that completes at 1 s.
const SECOND_SERVE_DRILL: &str = "\
t=0 ServeStarted tenants=1 capacity=2 initial_depth=1 offered_rate=1
t=0 RequestAdmitted tenant=0 id=0
t=0 RequestDispatched tenant=0 id=0 arrival=0
t=0 ServeRound round=0 start=0 completion=1 size=1
t=1 ServeEnded
";

/// One epoch of a two-round stream.
const STREAM: &str = "\
t=0 StreamStarted rounds=2 round_size=2 samples=4 devices=1
t=0 EpochStarted epoch=1
t=0 RoundFused round=0 samples=2 degraded=false
t=0 RoundFused round=1 samples=2 degraded=false
t=2 EpochEnded epoch=1 max_in_flight=1
t=2 StreamEnded steady_state=2
";

/// The replay error of `text`, which must be the same whether the journal is
/// replayed as parsed or after another trip through its own text.
fn replay_error<C: std::fmt::Debug>(text: &str, replay: fn(&RunJournal) -> Result<C>) -> String {
    let journal = RunJournal::from_text(text).unwrap();
    let Err(MetricsError::Replay { message }) = replay(&journal) else {
        panic!("expected a replay error from:\n{text}");
    };
    let again = RunJournal::from_text(&journal.to_text()).unwrap();
    assert_eq!(
        replay(&again).unwrap_err(),
        MetricsError::Replay {
            message: message.clone()
        }
    );
    message
}

#[test]
fn two_serve_drills_in_one_journal_are_a_replay_error_not_a_mixture() {
    let one = RunJournal::from_text(SERVE_DRILL).unwrap();
    let counters = one.replay_serve().unwrap();
    assert_eq!(
        (counters.completed, counters.p50_latency_seconds),
        (2, 10.0)
    );

    // The parent folded the second drill into the first: `completed: 1`,
    // `rounds_formed: 2`, an overall p50 of 10 s beside a tenant p50 of 1 s.
    let two = format!("{SERVE_DRILL}{SECOND_SERVE_DRILL}");
    let message = replay_error(&two, RunJournal::replay_serve);
    assert!(message.contains("ServeStarted"), "{message}");

    // So is any serve event after `ServeEnded` …
    let late = format!("{SERVE_DRILL}t=11 ServeRecovery seconds=1\n");
    let message = replay_error(&late, RunJournal::replay_serve);
    assert!(message.contains("ServeRecovery"), "{message}");
    // … while another family's run in the same journal is none of the serve
    // fold's business.
    let mixed = RunJournal::from_text(&format!("{SERVE_DRILL}{STREAM}")).unwrap();
    assert!(mixed.replay_serve().unwrap().bitwise_eq(&counters));
    assert_eq!(mixed.replay_stream().unwrap().epochs, 1);
}

#[test]
fn two_streams_in_one_journal_are_a_replay_error_not_a_mixture() {
    let one = RunJournal::from_text(STREAM).unwrap();
    assert_eq!(one.replay_stream().unwrap().epochs, 1);

    // The parent folded the second stream into the first (`epochs: 2`).
    let message = replay_error(&format!("{STREAM}{STREAM}"), RunJournal::replay_stream);
    assert!(message.contains("StreamStarted"), "{message}");

    let late = format!("{STREAM}t=3 DeviceDead device=0\n");
    let message = replay_error(&late, RunJournal::replay_stream);
    assert!(message.contains("DeviceDead"), "{message}");

    // An event of the family before its run opened is out of place too.
    let early = format!("t=0 EpochStarted epoch=1\n{STREAM}");
    let message = replay_error(&early, RunJournal::replay_stream);
    assert!(message.contains("EpochStarted"), "{message}");
}

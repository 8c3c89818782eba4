//! Where filtered help finds a blocked consumer's producer.
//!
//! A consumer blocked in `pop` may run only tasks that precede it
//! (DESIGN.md §3.1), and it looks for them in its own queue, then the
//! other workers' queues, then the injector. Each test leaves the
//! consumer exactly one eligible producer, in exactly one of those
//! places, and keeps every other thread from running it: the pop can only
//! return if the help scan looked there.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

use hyperqueue::Hyperqueue;
use swan::{Runtime, Scope};

/// Runs `test` on its own thread; a consumer that never finds its
/// producer fails the test instead of hanging it.
fn within_a_minute(test: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    thread::spawn(move || {
        test();
        done.send(()).expect("the test thread is waiting");
    });
    finished
        .recv_timeout(Duration::from_secs(60))
        .expect("the blocked consumer must find its producer");
}

/// Spawns `n` tasks that each hold a worker, without helping, until
/// `release` is set; returns once all of them run.
fn hold_workers<'s>(s: &Scope<'s>, n: usize, started: &'s AtomicUsize, release: &'s AtomicBool) {
    for _ in 0..n {
        s.spawn((), move |_, ()| {
            started.fetch_add(1, Ordering::SeqCst);
            while !release.load(Ordering::SeqCst) {
                thread::yield_now();
            }
        });
    }
    while started.load(Ordering::SeqCst) < n {
        thread::yield_now();
    }
}

fn ran_on(slot: &Mutex<Option<ThreadId>>) {
    *slot.lock().unwrap() = Some(thread::current().id());
}

/// Every worker is held, so the producer the scope's own thread spawns
/// sits in the injector; that thread, blocked in the owner's `pop`, must
/// run it there.
fn producer_in_the_injector(workers: usize) {
    let rt = Runtime::with_workers(workers);
    let (started, release) = (AtomicUsize::new(0), AtomicBool::new(false));
    let producer = Mutex::new(None);
    rt.scope(|s| {
        let q = Hyperqueue::<u32>::new(s);
        hold_workers(s, workers, &started, &release);
        s.spawn((q.pushdep(),), |_, (mut p,)| {
            ran_on(&producer);
            p.push(7);
        });
        assert_eq!(q.pop(), 7);
        release.store(true, Ordering::SeqCst);
    });
    assert_eq!(*producer.lock().unwrap(), Some(thread::current().id()));
}

/// The consumer spawns its producer onto its own worker's queue and then
/// blocks; every other worker is held.
fn producer_in_its_own_queue(workers: usize) {
    let rt = Runtime::with_workers(workers);
    let (started, release) = (AtomicUsize::new(0), AtomicBool::new(false));
    let (producer, consumer) = (Mutex::new(None), Mutex::new(None));
    rt.scope(|s| {
        hold_workers(s, workers - 1, &started, &release);
        s.spawn((), |s, ()| {
            ran_on(&consumer);
            let q = Hyperqueue::<u32>::new(s);
            s.spawn((q.pushdep(),), |_, (mut p,)| {
                ran_on(&producer);
                p.push(7);
            });
            assert_eq!(q.pop(), 7);
            release.store(true, Ordering::SeqCst);
        });
    });
    let consumer = consumer.lock().unwrap().expect("consumer ran");
    assert_eq!(*producer.lock().unwrap(), Some(consumer));
}

/// Task `x` holds push privileges and runs on one worker; the consumer,
/// spawned after it, blocks on the other. Only then does `x` spawn the
/// producer — onto its own worker's queue — and hold that worker until
/// the consumer is done.
fn producer_in_another_workers_queue() {
    let rt = Runtime::with_workers(2);
    let (x_running, consumer_blocked, consumed) = (
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicBool::new(false),
    );
    let (x, producer, consumer) = (Mutex::new(None), Mutex::new(None), Mutex::new(None));
    rt.scope(|s| {
        let q = Hyperqueue::<u32>::new(s);
        s.spawn((q.pushdep(),), |s, (mut p,)| {
            ran_on(&x);
            x_running.store(true, Ordering::SeqCst);
            while !consumer_blocked.load(Ordering::SeqCst) {
                thread::yield_now();
            }
            s.spawn((p.pushdep(),), |_, (mut p,)| {
                ran_on(&producer);
                p.push(7);
            });
            while !consumed.load(Ordering::SeqCst) {
                thread::yield_now();
            }
        });
        while !x_running.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        s.spawn((q.popdep(),), |_, (mut c,)| {
            ran_on(&consumer);
            consumer_blocked.store(true, Ordering::SeqCst);
            assert_eq!(c.pop(), 7);
            consumed.store(true, Ordering::SeqCst);
        });
    });
    let consumer = consumer.lock().unwrap().expect("consumer ran");
    assert_eq!(*producer.lock().unwrap(), Some(consumer));
    assert_ne!(*x.lock().unwrap(), Some(consumer), "two workers took part");
}

#[test]
fn help_scan_finds_the_producer_in_the_injector_at_1_worker() {
    within_a_minute(|| producer_in_the_injector(1));
}

#[test]
fn help_scan_finds_the_producer_in_the_injector_at_2_workers() {
    within_a_minute(|| producer_in_the_injector(2));
}

#[test]
fn help_scan_finds_the_producer_in_its_own_queue_at_1_worker() {
    within_a_minute(|| producer_in_its_own_queue(1));
}

#[test]
fn help_scan_finds_the_producer_in_its_own_queue_at_2_workers() {
    within_a_minute(|| producer_in_its_own_queue(2));
}

#[test]
fn help_scan_finds_the_producer_in_another_workers_queue_at_2_workers() {
    within_a_minute(producer_in_another_workers_queue);
}

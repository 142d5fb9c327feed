//! One process-wide budget of task threads, and an index-ordered `par_map`
//! that draws on it at any nesting depth.
//!
//! Determinism contract: `par_mapi(items, f)` returns exactly
//! `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()` for any worker
//! count, provided `f` is a pure function of `(i, t)`. The pool only changes
//! *when* each task runs, never what it computes or where its result lands,
//! so parallel output is bit-identical to the serial path.
//!
//! Scheduling: at most [`workers`] threads run tasks at once, process-wide,
//! however deeply fan-outs nest; a thread runs tasks only while it holds a
//! slot of that budget. Every thread on a fan-out claims indices from its
//! one atomic cursor: the caller, plus scoped helpers recruited whenever a
//! slot is free — on entry and again after each task. With the budget
//! full, a fan-out parks one standby helper that takes the next slot given
//! back, so a slot freed while all its threads are inside long tasks is
//! not wasted. A helper whose fan-out has nothing left to claim exits; a
//! caller in that state lends its slot out while it waits for its
//! helpers, and the last to leave hands it back.
//!
//! Helpers run items of their own fan-out only, and no thread waits for a
//! slot while it holds a claimed task (only an idle standby waits, and it
//! leaves once its fan-out runs dry). Tasks therefore wait on each other
//! only as they would inline, and the pool adds no edge to the wait-for
//! graph of the `MemoTable` / `cached` single-flight locks.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::Scope;

/// Slots in use: threads currently entitled to run tasks, process-wide.
/// A plain counter that guards no other data, read and written with
/// `SeqCst` read-modify-writes.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// Parked standbys sleep on [`FREED`] under this lock until a slot is
/// given back or their fan-out runs dry.
static PARKED: Mutex<()> = Mutex::new(());
static FREED: Condvar = Condvar::new();

thread_local! {
    /// Whether this thread holds a slot: set on helpers, and on a caller
    /// for the length of its outermost fan-out. A fan-out issued by a
    /// thread that already holds one runs under that slot.
    static HOLDS_SLOT: Cell<bool> = const { Cell::new(false) };
}

/// Takes a slot if fewer than `budget` are in use. Never waits.
fn try_acquire(budget: usize) -> bool {
    ACTIVE
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |a| {
            (a < budget).then_some(a + 1)
        })
        .is_ok()
}

/// Gives a slot back to the budget and wakes the parked standbys.
fn release() {
    ACTIVE.fetch_sub(1, Ordering::SeqCst);
    wake_standbys();
}

fn wake_standbys() {
    // The lock guards no data, so a poisoned one is as good as a clean one.
    let _parked = PARKED.lock().unwrap_or_else(|p| p.into_inner());
    FREED.notify_all();
}

/// Worker-count override installed by [`set_workers`]; 0 means "not set".
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces the worker count for subsequent [`par_map`] calls in this
/// process. `None` restores the default resolution order (environment,
/// then hardware). Benchmarks and the determinism suite use this to pin
/// 1/2/8-worker runs.
pub fn set_workers(n: Option<usize>) {
    WORKER_OVERRIDE.store(n.map_or(0, |v| v.max(1)), Ordering::Relaxed);
}

/// The worker count the next [`par_map`] call will use: the
/// [`set_workers`] override if installed, else `BDC_WORKERS` from the
/// environment, else the machine's available parallelism.
///
/// A malformed `BDC_WORKERS` prints the parser's one-line diagnostic to
/// stderr and exits with status 2 — an invalid knob silently falling back
/// to the default would make "I pinned the worker count" runs lie, and a
/// panic's backtrace spam is the wrong answer to a typo'd env var.
/// Binaries that call [`crate::env_config`] up front never reach this
/// backstop.
pub fn workers() -> usize {
    let forced = WORKER_OVERRIDE.load(Ordering::Relaxed);
    if forced != 0 {
        return forced;
    }
    if let Ok(raw) = std::env::var("BDC_WORKERS") {
        return parse_workers(&raw).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Validates a `BDC_WORKERS` value: a positive integer, surrounding
/// whitespace tolerated.
///
/// # Errors
/// A one-line diagnostic naming the variable and the offending value.
pub fn parse_workers(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "BDC_WORKERS must be >= 1 (use 1 for serial execution), got `{raw}`"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "BDC_WORKERS must be a positive integer (e.g. `BDC_WORKERS=8`), got `{raw}`"
        )),
    }
}

/// Maps `f` over `items` on the pool, returning results in index order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_mapi(items, |_, t| f(t))
}

/// Maps `f(index, item)` over `items` on the pool, returning results in
/// index order. The index parameter is how randomized tasks derive a
/// per-task seed (see [`crate::task_seed`]) instead of consuming a shared
/// sequential RNG stream.
///
/// # Panics
/// Propagates a panic raised by `f` once every helper has left.
pub fn par_mapi<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let budget = workers();
    if budget <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let _slot = CallerSlot::take();
    let batch = Batch {
        items,
        f: &f,
        out: items.iter().map(|_| Mutex::new(None)).collect(),
        team: Team {
            len: items.len(),
            budget,
            // Helpers inherit the caller's attribution scope so tallies
            // recorded inside the fan-out stay credited to it (see
            // [`crate::stages::enter_scope`]).
            scope: crate::stages::current_scope(),
            next: AtomicUsize::new(0),
            crew: Mutex::new(Crew::default()),
            handed_back: Condvar::new(),
        },
    };
    std::thread::scope(|s| {
        // Runs on unwind too: a panicking caller still closes the cursor
        // and waits for its helpers before the scope joins them.
        let _finish = Finish(&batch.team);
        batch.drain(s);
        // Leaving the scope joins the helpers and propagates any panic.
    });
    batch
        .out
        .into_iter()
        .map(|r| {
            r.into_inner()
                .expect("no task panics while holding a result slot")
                .expect("the cursor handed out every index")
        })
        .collect()
}

/// The calling thread's slot for an outermost fan-out. It is taken even
/// past the budget — the caller runs tasks either way and never waits —
/// so concurrent outermost callers just leave fewer slots for helpers.
struct CallerSlot {
    taken: bool,
}

impl CallerSlot {
    fn take() -> CallerSlot {
        let taken = !HOLDS_SLOT.with(|h| h.replace(true));
        if taken {
            ACTIVE.fetch_add(1, Ordering::SeqCst);
        }
        CallerSlot { taken }
    }
}

impl Drop for CallerSlot {
    fn drop(&mut self) {
        if self.taken {
            HOLDS_SLOT.with(|h| h.set(false));
            release();
        }
    }
}

/// One fan-out: its inputs, the task, the result slots and its team.
struct Batch<'a, T, R, F> {
    items: &'a [T],
    f: &'a F,
    out: Vec<Mutex<Option<R>>>,
    team: Team,
}

impl<T, R, F> Batch<'_, T, R, F>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    /// Claims and runs items until the cursor runs dry, recruiting help
    /// before each claim.
    fn drain<'s>(&'s self, s: &'s Scope<'s, '_>) {
        loop {
            self.recruit(s);
            let i = self.team.next.fetch_add(1, Ordering::SeqCst);
            let Some(item) = self.items.get(i) else {
                return;
            };
            let r = (self.f)(i, item);
            *self.out[i]
                .lock()
                .expect("no task panics while holding a result slot") = Some(r);
        }
    }

    /// Spawns a helper for each free slot, up to one thread per unclaimed
    /// item; with the budget full, parks a standby instead, if there is
    /// none yet. A thread the OS refuses just means less help.
    fn recruit<'s>(&'s self, s: &'s Scope<'s, '_>) {
        let team = &self.team;
        // Counts change only under this lock, so a helper that starts and
        // leaves at once still sees itself counted.
        let mut crew = team.lock_crew();
        let unclaimed = team.len.saturating_sub(team.next.load(Ordering::SeqCst));
        // The `+ 1` is the caller, which works on the fan-out throughout.
        while crew.holders + usize::from(crew.standby) + 1 < team.budget.min(unclaimed) {
            if try_acquire(team.budget) {
                if !spawn_in(s, move || self.help(s)) {
                    release();
                    break;
                }
                crew.holders += 1;
            } else if !crew.standby && spawn_in(s, move || self.stand_by(s)) {
                crew.standby = true;
            } else {
                break;
            }
        }
    }

    /// A helper's life: it holds a slot (already counted in `holders`),
    /// drains the fan-out, then leaves — on unwind too.
    fn help<'s>(&'s self, s: &'s Scope<'s, '_>) {
        crate::stages::adopt_scope(self.team.scope);
        HOLDS_SLOT.with(|h| h.set(true));
        let _leave = Leave(&self.team);
        self.drain(s);
    }

    /// Waits, holding no task, for a free slot and then helps — or exits
    /// once the fan-out has nothing left to claim.
    fn stand_by<'s>(&'s self, s: &'s Scope<'s, '_>) {
        let team = &self.team;
        let got_slot = {
            let mut parked = PARKED.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if team.next.load(Ordering::SeqCst) >= team.len {
                    break false;
                }
                if try_acquire(team.budget) {
                    break true;
                }
                parked = FREED.wait(parked).unwrap_or_else(|p| p.into_inner());
            }
        };
        let mut crew = team.lock_crew();
        crew.standby = false;
        if got_slot {
            crew.holders += 1;
            drop(crew);
            self.help(s);
        }
    }
}

/// Spawns `job` as a scoped thread; `false` when the OS refuses one.
fn spawn_in<'s>(s: &'s Scope<'s, '_>, job: impl FnOnce() + Send + 's) -> bool {
    std::thread::Builder::new().spawn_scoped(s, job).is_ok()
}

/// The threads on one fan-out, and the cursor they claim indices from.
struct Team {
    len: usize,
    budget: usize,
    scope: u64,
    next: AtomicUsize,
    crew: Mutex<Crew>,
    /// Signalled when the last holder hands its slot to a lending caller.
    handed_back: Condvar,
}

#[derive(Default)]
struct Crew {
    /// Helpers holding a slot.
    holders: usize,
    /// Whether a standby is parked for this fan-out.
    standby: bool,
    /// Set while the caller has lent its slot out; the last holder to
    /// leave clears it and hands its own slot over instead of releasing.
    lending: bool,
}

impl Team {
    fn lock_crew(&self) -> MutexGuard<'_, Crew> {
        // Each update leaves the counts consistent, and a panicking task
        // never holds this lock, so recovering from poison is sound.
        self.crew.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Drop guard for a helper's exit: the slot goes back to the budget, or to
/// the lending caller if this is the last holder out.
struct Leave<'t>(&'t Team);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        let mut crew = self.0.lock_crew();
        crew.holders -= 1;
        if crew.holders == 0 && crew.lending {
            crew.lending = false;
            self.0.handed_back.notify_one();
        } else {
            drop(crew);
            release();
        }
    }
}

/// Drop guard for the caller's end of a fan-out: close the cursor, send a
/// parked standby home, and lend the caller's slot out until the helpers
/// are done.
struct Finish<'t>(&'t Team);

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        let team = self.0;
        team.next.fetch_max(team.len, Ordering::SeqCst);
        wake_standbys();
        let mut crew = team.lock_crew();
        if crew.holders > 0 {
            crew.lending = true;
            release();
            while crew.lending {
                crew = team
                    .handed_back
                    .wait(crew)
                    .unwrap_or_else(|p| p.into_inner());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Serialize tests that touch the global override.
    static LOCK: Mutex<()> = Mutex::new(());

    /// A two-party barrier with a 10 s timeout.
    #[derive(Default)]
    struct Rendezvous {
        arrived: Mutex<usize>,
        all_here: Condvar,
    }

    impl Rendezvous {
        /// Arrives and waits for the other party; `false` on timeout.
        fn meet(&self) -> bool {
            let mut n = self.arrived.lock().unwrap();
            *n += 1;
            self.all_here.notify_all();
            let waited = self
                .all_here
                .wait_timeout_while(n, Duration::from_secs(10), |n| *n < 2);
            !waited.unwrap().1.timed_out()
        }
    }

    /// An outer fan-out over `[instant, nested]` whose nested two items
    /// meet at a rendezvous: it succeeds only if the nested fan-out gets a
    /// second thread, which at two workers is the slot the instant item's
    /// thread gives back.
    fn nested_pair_meets() -> bool {
        let meeting = Rendezvous::default();
        par_map(&[false, true], |&nested| {
            !nested
                || par_map(&[0, 1], |_| meeting.meet())
                    .into_iter()
                    .all(|met| met)
        })
        .into_iter()
        .all(|met| met)
    }

    #[test]
    fn nested_fan_out_runs_on_an_idle_worker() {
        let _g = LOCK.lock().unwrap();
        set_workers(Some(2));
        assert!(
            nested_pair_meets(),
            "nested fan-out never got a second thread"
        );
        assert_eq!(ACTIVE.load(Ordering::SeqCst), 0, "slots leaked");
        set_workers(None);
    }

    #[test]
    fn running_tasks_never_exceed_the_budget_across_nesting() {
        let _g = LOCK.lock().unwrap();
        for w in [2, 3, 8] {
            set_workers(Some(w));
            let running = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            // Leaf work only: a task that fans out runs nothing itself
            // while its nested fan-out is in flight.
            let leaf = || {
                peak.fetch_max(running.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
                running.fetch_sub(1, Ordering::SeqCst);
            };
            let outer: Vec<usize> = (0..6).collect();
            let middle: Vec<usize> = (0..5).collect();
            par_map(&outer, |_| {
                par_map(&middle, |_| {
                    leaf();
                    par_map(&[0, 1, 2], |_| leaf());
                    leaf();
                })
            });
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= w, "{peak} tasks ran at once on a budget of {w}");
            assert_eq!(ACTIVE.load(Ordering::SeqCst), 0, "slots leaked at w = {w}");
        }
        set_workers(None);
    }

    #[test]
    fn nested_helper_panic_propagates_without_leaking_a_slot() {
        let _g = LOCK.lock().unwrap();
        set_workers(Some(2));
        let meeting = Rendezvous::default();
        let res = std::panic::catch_unwind(|| {
            par_map(&[false, true], |&nested| {
                let caller = std::thread::current().id();
                // Both nested items meet first, so each runs on its own
                // thread; the one that is not the caller is a helper.
                nested
                    && par_map(&[0, 1], |_| {
                        let met = meeting.meet();
                        assert!(std::thread::current().id() == caller, "helper boom");
                        // Outlast the helper, so its slot goes back to the
                        // budget rather than to a lending caller.
                        let deadline = Instant::now() + Duration::from_secs(10);
                        while ACTIVE.load(Ordering::SeqCst) > 1 && Instant::now() < deadline {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        met
                    })
                    .into_iter()
                    .all(|met| met)
            })
        });
        assert!(res.is_err(), "the helper's panic was swallowed");
        assert_eq!(
            ACTIVE.load(Ordering::SeqCst),
            0,
            "a panicking helper kept its slot"
        );
        assert!(nested_pair_meets(), "the budget shrank after the panic");
        set_workers(None);
    }

    #[test]
    fn par_map_is_index_ordered_for_all_worker_counts() {
        let _g = LOCK.lock().unwrap();
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for w in [1, 2, 3, 8, 64] {
            set_workers(Some(w));
            let got = par_map(&items, |&x| x * x + 1);
            assert_eq!(got, expect, "workers = {w}");
        }
        set_workers(None);
    }

    #[test]
    fn par_mapi_passes_the_index() {
        let _g = LOCK.lock().unwrap();
        set_workers(Some(4));
        let items = vec!["a"; 100];
        let got = par_mapi(&items, |i, s| format!("{s}{i}"));
        for (i, s) in got.iter().enumerate() {
            assert_eq!(s, &format!("a{i}"));
        }
        set_workers(None);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let _g = LOCK.lock().unwrap();
        set_workers(Some(8));
        assert_eq!(par_map(&[] as &[i32], |x| *x), Vec::<i32>::new());
        assert_eq!(par_map(&[41], |x| x + 1), vec![42]);
        set_workers(None);
    }

    #[test]
    fn worker_panic_propagates() {
        let _g = LOCK.lock().unwrap();
        set_workers(Some(2));
        let items: Vec<usize> = (0..16).collect();
        let res = std::panic::catch_unwind(|| {
            par_map(&items, |&i| {
                assert!(i != 7, "boom");
                i
            })
        });
        assert!(res.is_err());
        set_workers(None);
    }

    #[test]
    fn set_workers_overrides_environment() {
        let _g = LOCK.lock().unwrap();
        set_workers(Some(3));
        assert_eq!(workers(), 3);
        set_workers(None);
        assert!(workers() >= 1);
    }

    #[test]
    fn parse_workers_accepts_positive_integers() {
        for (raw, expect) in [("1", 1), ("8", 8), (" 4 ", 4), ("64", 64)] {
            assert_eq!(parse_workers(raw), Ok(expect), "{raw:?}");
        }
    }

    #[test]
    fn parse_workers_rejects_with_a_diagnostic() {
        for raw in ["0", "-2", "", " ", "abc", "1.5", "8workers", "+"] {
            let err = parse_workers(raw).expect_err(raw);
            assert!(
                err.contains("BDC_WORKERS"),
                "diagnostic names the knob: {err}"
            );
            assert!(err.contains(raw.trim()) || raw.trim().is_empty(), "{err}");
        }
    }
}

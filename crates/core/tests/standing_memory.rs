//! Soak: a standing SVAQD statement holds no per-clip history.
//!
//! A counting global allocator tracks the binary's live heap bytes while
//! one `Svaqd` steps over one svqbench-corpus video (1200 clips). Once
//! the stream is past its first 200 clips, a step may not grow the live
//! heap at all: the engine hands every closed result sequence to its
//! caller and keeps none. The binary holds a single test so that no other
//! test's allocations reach the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use svq_core::expr::CnfQuery;
use svq_core::online::{OnlineConfig, Svaqd};
use svq_types::{ActionClass, ObjectClass, Predicate, VideoId};
use svq_vision::models::{DetectionOracle, ModelSuite};
use svq_vision::synth::{ObjectSpec, ScenarioSpec};
use svq_vision::VideoStream;

/// Live heap bytes: allocated minus freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting the bytes it hands out and takes back.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = System.realloc(ptr, layout, new_size);
        if !grown.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        grown
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// svqbench's corpus seed (`crates/svqbench/src/gen.rs`).
const CORPUS_SEED: u64 = 20_230_403;

/// Clips stepped before the first reading.
const WARMUP: u64 = 200;

/// svqbench's first corpus video: 60 000 frames, jumping with a
/// correlated car and a scene-wide person.
fn corpus_video(suite: ModelSuite) -> DetectionOracle {
    ScenarioSpec::activitynet(
        VideoId::new(0),
        60_000,
        ActionClass::named("jumping"),
        vec![
            ObjectSpec::correlated(ObjectClass::named("car")),
            ObjectSpec::scene(ObjectClass::named("person")),
        ],
        CORPUS_SEED,
    )
    .generate()
    .oracle(suite)
}

/// What one standing run grew by past the warm-up.
struct Soak {
    clips: u64,
    /// Live bytes at the end minus live bytes after clip [`WARMUP`].
    growth: isize,
    /// Sequences the merger closed over the whole stream.
    closed: usize,
}

/// Step a fresh SVAQD for `query` over `oracle`'s whole stream.
fn soak(query: CnfQuery, oracle: &DetectionOracle) -> Soak {
    let mut stream = VideoStream::new(oracle);
    let geometry = stream.geometry();
    let mut engine = Svaqd::new(query, geometry, OnlineConfig::default(), 1e-4, 1e-4);
    let (mut clips, mut closed, mut after_warmup) = (0, 0, 0);
    loop {
        if clips == WARMUP {
            after_warmup = LIVE.load(Ordering::Relaxed);
        }
        let Some(mut view) = stream.next_clip() else {
            break;
        };
        closed += usize::from(engine.push_clip(&mut view).closed.is_some());
        clips += 1;
    }
    let growth = LIVE.load(Ordering::Relaxed) - after_warmup;
    drop(engine);
    Soak {
        clips,
        growth,
        closed,
    }
}

fn object(name: &str) -> Predicate {
    Predicate::Object(ObjectClass::named(name))
}

#[test]
fn a_standing_statement_does_not_grow_per_clip() {
    // An action the scene never shows: under ideal models no clip holds,
    // so nothing at all may be allocated past the warm-up.
    let ideal = corpus_video(ModelSuite::ideal());
    let absent = CnfQuery::new(vec![
        vec![object("car")],
        vec![Predicate::Action(ActionClass::named("kissing"))],
    ]);
    let quiet = soak(absent, &ideal);
    assert_eq!(quiet.clips, 1_200);
    assert_eq!(quiet.closed, 0);
    assert_eq!(quiet.growth, 0, "live bytes grew past clip {WARMUP}");

    // `car AND person` under realistic models closes sequences all along
    // the stream, and learns the order of its two object clauses; still
    // nothing may grow.
    let accurate = corpus_video(ModelSuite::accurate());
    let busy = soak(
        CnfQuery::new(vec![vec![object("car")], vec![object("person")]]),
        &accurate,
    );
    assert_eq!(busy.clips, 1_200);
    assert!(busy.closed > 0, "the statement closed no sequence");
    assert_eq!(
        busy.growth, 0,
        "live bytes grew past clip {WARMUP} over {} closed sequences",
        busy.closed
    );
}

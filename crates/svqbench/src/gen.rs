//! Inputs: the video corpus and the seeded traffic over it.
//!
//! The corpus (what each video id contains) is a constant of the
//! benchmark; `--seed` drives the traffic — which video, which statement,
//! in which order, on which client. RVAQ's cost on a 1200-clip video
//! ranges 2x over scenario seeds (2.3 to 8.4 ms for one top-1 statement),
//! which no regression bound could sit under, so content does not move
//! with the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use svq_types::{ActionClass, ObjectClass, VideoId};
use svq_vision::models::{DetectionOracle, ModelSuite};
use svq_vision::synth::{ObjectSpec, ScenarioSpec};

/// Scenario seed of video 0; video `v` uses `CORPUS_SEED + v`.
const CORPUS_SEED: u64 = 20_230_403;

pub const ACTION: &str = "jumping";
pub const OBJECTS: [&str; 2] = ["car", "person"];

/// The scenario behind video `video`: one dominant action in episodes, a
/// correlated `car` and a scene-level `person`.
pub fn scenario(video: u64, frames: u64) -> ScenarioSpec {
    ScenarioSpec::activitynet(
        VideoId::new(video),
        frames,
        ActionClass::named(ACTION),
        vec![
            ObjectSpec::correlated(ObjectClass::named(OBJECTS[0])),
            ObjectSpec::scene(ObjectClass::named(OBJECTS[1])),
        ],
        CORPUS_SEED + video,
    )
}

/// Generate video `video` and wrap it in the accurate model suite.
pub fn oracle(video: u64, frames: u64) -> Arc<DetectionOracle> {
    Arc::new(
        scenario(video, frames)
            .generate()
            .oracle(ModelSuite::accurate()),
    )
}

/// The three object-predicate shapes every query workload mixes.
pub const OBJECT_SHAPES: [&str; 3] = ["'car'", "'person'", "'car', 'person'"];

/// Offline top-`k` statement over one object shape.
pub fn offline_sql(shape: &str, k: usize) -> String {
    format!(
        "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) \
         FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectTracker, \
         act USING ActionRecognizer) \
         WHERE act='{ACTION}' AND obj.include({shape}) \
         ORDER BY RANK(act, obj) LIMIT {k}"
    )
}

/// Online statements: one object, two objects, and a CNF with `OR` (which
/// plans onto the expression engine). `fanout_push` adds the second
/// single-object statement so its four sessions share the source unevenly.
pub fn online_sql(which: usize) -> String {
    let predicate = match which {
        0 => "obj.include('car')",
        1 => "obj.include('car', 'person')",
        2 => "(obj.include('car') OR obj.include('person'))",
        _ => "obj.include('person')",
    };
    format!(
        "SELECT MERGE(clipID) AS Sequence \
         FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector, \
         act USING ActionRecognizer) \
         WHERE act='{ACTION}' AND {predicate}"
    )
}

/// A seeded dealer over weighted alternatives: a deck holding alternative
/// `i` `weights[i]` times, shuffled, dealt to the end and shuffled again.
/// Every pass through the deck has exactly the weighted mix, so two seeds
/// differ in request order but not in how much work they ask for — with
/// independent draws the mix itself wandered, and RVAQ's cost per request
/// spans 10x over K and predicate shape.
pub struct Deck {
    rng: StdRng,
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    /// `stream` separates the dealers of one run (client index, pass) so
    /// no two deal the same sequence.
    pub fn new(seed: u64, stream: u64, weights: &[u32]) -> Self {
        let cards: Vec<usize> = weights
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| std::iter::repeat_n(i, w as usize))
            .collect();
        Self {
            rng: StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            next: cards.len(),
            cards,
        }
    }

    /// Index of the next alternative (0 from an empty deck).
    pub fn deal(&mut self) -> usize {
        if self.next >= self.cards.len() {
            let mut cards = std::mem::take(&mut self.cards);
            self.shuffle(&mut cards);
            self.cards = cards;
            self.next = 0;
        }
        let card = self.cards.get(self.next).copied().unwrap_or(0);
        self.next += 1;
        card
    }

    /// Seeded Fisher-Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.rng.gen_range(0..=i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deck_repeats_per_seed_and_deals_the_exact_mix() {
        let draws = |seed| {
            let mut d = Deck::new(seed, 1, &[7, 1, 0, 2]);
            (0..2000).map(|_| d.deal()).collect::<Vec<_>>()
        };
        assert_eq!(draws(42), draws(42));
        assert_ne!(draws(42), draws(43));
        for seed in [42, 43] {
            let count = |i| draws(seed).iter().filter(|&&c| c == i).count();
            assert_eq!(
                [count(0), count(1), count(2), count(3)],
                [1400, 200, 0, 400]
            );
        }
        // Order changes from one pass through the deck to the next.
        let d = draws(42);
        assert_ne!(d[..10], d[10..20]);
    }

    #[test]
    fn statements_plan_in_their_modes() {
        use svq_query::{parse, LogicalPlan, QueryMode};
        for shape in OBJECT_SHAPES {
            let plan =
                LogicalPlan::from_statement(&parse(&offline_sql(shape, 3)).unwrap()).unwrap();
            assert_eq!(plan.mode, QueryMode::Offline { k: 3 });
        }
        for which in 0..4 {
            let plan = LogicalPlan::from_statement(&parse(&online_sql(which)).unwrap()).unwrap();
            assert_eq!(plan.mode, QueryMode::Online);
        }
    }
}

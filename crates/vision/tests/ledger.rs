//! The one-step clip charge against the per-unit charge loop it replaces.
//!
//! `CostLedger::charge_object_frames(model, n)` and `charge_action_shots`
//! must leave exactly the ledger `n` one-unit charges leave — the counts,
//! and the millisecond sums bit for bit (so `-0.0` keeps its sign) — for
//! arbitrary finite costs: integral ones like every profile's, fractional
//! ones, `±0.0`, magnitudes at and past 2^53 where integer addition stops
//! being exact, any finite bit pattern, and `n = 0`. Each case charges a
//! run of clips, so the running sums cross those limits too.
//! `PROPTEST_CASES` sets the depth (default 64).

use proptest::prelude::*;
use svq_vision::{CostLedger, CostModel};

/// 2^53, past which not every integer is an `f64`.
const LIMIT: f64 = 9_007_199_254_740_992.0;

/// A finite cost or starting sum of one of the shapes the one-step charge
/// must tell apart.
fn finite(bits: u64) -> f64 {
    let small = (bits >> 8) % 1_000;
    match bits % 9 {
        0 => -0.0,
        1 => 0.0,
        2 => small as f64,
        3 => -(small as f64),
        4 => small as f64 * 0.1,
        5 => LIMIT - small as f64,
        6 => LIMIT + 2.0 * small as f64,
        7 => -(LIMIT - small as f64),
        _ => {
            let f = f64::from_bits(bits.rotate_right(4));
            if f.is_finite() {
                f
            } else {
                1.5
            }
        }
    }
}

fn bits(ledger: &CostLedger) -> (u64, u64, u64, u64) {
    (
        ledger.object_frames,
        ledger.action_shots,
        ledger.object_ms.to_bits(),
        ledger.action_ms.to_bits(),
    )
}

proptest! {
    #[test]
    fn one_step_charges_are_the_per_unit_loop_bit_for_bit(
        costs in (any::<u64>(), any::<u64>()),
        start in (any::<u64>(), any::<u64>()),
        clips in prop::collection::vec((0u64..70, 0u64..12, any::<bool>()), 1..12),
    ) {
        let model = CostModel {
            object_ms_per_frame: finite(costs.0),
            action_ms_per_shot: finite(costs.1),
        };
        let mut one_step = CostLedger {
            object_ms: finite(start.0),
            action_ms: finite(start.1),
            ..CostLedger::default()
        };
        let mut per_unit = one_step;
        for (frames, shots, both) in clips {
            one_step.charge_object_frames(&model, frames);
            for _ in 0..frames {
                per_unit.charge_object_frame(&model);
            }
            if both {
                one_step.charge_action_shots(&model, shots);
                for _ in 0..shots {
                    per_unit.charge_action_shot(&model);
                }
            }
            prop_assert_eq!(
                bits(&one_step),
                bits(&per_unit),
                "model {:?}, {} frames, {} shots",
                model,
                frames,
                shots
            );
        }
    }
}

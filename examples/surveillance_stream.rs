//! Surveillance scenario: a long-running street camera whose traffic
//! density changes over the day — the concept-drift setting that motivates
//! SVAQD's dynamic background estimation (§3.3's rush-hour example).
//!
//! We watch for *jumping while a car is visible* (the paper's running
//! query) over three consecutive hours of footage with quiet, normal and
//! rush-hour detector noise, processing the feed as one continuous stream
//! and printing results as sequences close — the streaming contract.
//!
//! ```text
//! cargo run --release --example surveillance_stream
//! ```

use svq_act::prelude::*;
use svq_core::online::Svaqd;

fn main() {
    let query = ActionQuery::named("jumping", &["car"]);
    let geometry = VideoGeometry::default();
    println!("watching for {query} on the street camera…\n");

    // Three hours of footage; detector confusion (reflections, glare)
    // triples during the middle "rush hour".
    let hours = [
        ("06:00-07:00 (quiet)", 0.5),
        ("07:00-08:00 (rush hour)", 3.0),
        ("08:00-09:00 (normal)", 1.0),
    ];

    // One persistent engine across the whole shift: the background
    // estimators track the drift; no p0 tuning.
    let mut engine = Svaqd::new(query.clone(), geometry, OnlineConfig::default(), 1e-4, 1e-4);

    let mut total_found = 0usize;
    for (i, (label, noise)) in hours.iter().enumerate() {
        let mut spec = ScenarioSpec::activitynet(
            VideoId::new(i as u64),
            90_000, // one hour at 25 fps
            query.action,
            vec![ObjectSpec::scene(ObjectClass::named("car"))],
            99 + i as u64,
        );
        // Jumping is rare on a street camera; confusion follows traffic.
        spec.action_occupancy = 0.02;
        spec.action_confusion = *noise;
        spec.objects[0].confusion = *noise;
        let video = spec.generate();

        let oracle = video.oracle(ModelSuite::accurate());
        let mut stream = VideoStream::new(&oracle);
        while let Some(mut view) = stream.next_clip() {
            // Sequences are emitted the moment they close — the streaming
            // contract: an operator sees the alert while the feed plays.
            if let Some(seq) = engine.push_clip(&mut view) {
                let t0 = seq.start.raw() * geometry.frames_per_clip() as u64 / geometry.fps as u64;
                println!(
                    "  [{label}] ALERT at +{:>4}s: clips {}..{}",
                    t0,
                    seq.start.raw(),
                    seq.end.raw()
                );
            }
        }
        // End of the hour's file: flush per-video state (the background
        // estimators persist across the shift).
        let (closed, _) = engine.next_video();
        let found_this_hour = closed.len();
        total_found += found_this_hour;

        // One background and critical value per predicate: car, then
        // jumping.
        let backgrounds = engine.backgrounds();
        let criticals = engine.criticals();
        println!(
            "[{label}] done: {found_this_hour} sequences; adapted backgrounds: \
             car={:.4}/frame, jumping={:.4}/shot; k_crit = {}/{}\n",
            backgrounds[0], backgrounds[1], criticals[0], criticals[1],
        );
    }
    println!("shift complete: {total_found} alerts over 3 h of footage");
}

//! `svqact` — the SVQ-ACT command line.
//!
//! ```text
//! svqact synth   --minutes 5 --action volleyball --objects tree --seed 7 --out scene.json
//! svqact ingest  --scene scene.json --models accurate --out catalog.svqc
//! svqact ingest  --scenes a.json,b.json --workers 4 --sink spill --out catalogs/
//! svqact query   --catalog catalog.svqc --sql "SELECT … ORDER BY RANK(act,obj) LIMIT 3"
//! svqact query   --scene scene.json --sql "SELECT … WHERE act='…'"
//! svqact mux     --sql "SELECT … WHERE act='…'" --streams 8 --workers 4
//! svqact serve   --catalog catalogs/ --scene scene.json --addr 127.0.0.1:7741
//! svqact serve   --catalog catalogs/ --shard-index 0 --shard-count 2 --addr 127.0.0.1:7751
//! svqact route   --shards 127.0.0.1:7751,127.0.0.1:7752 --addr 127.0.0.1:7741
//! svqact request --addr 127.0.0.1:7741 --kind query --sql "SELECT …"
//! svqact request --addr 127.0.0.1:7741 --kind query --video all --sql "SELECT …"
//! svqact serve   --source action=jumping,objects=car,rate=120 --addr 127.0.0.1:7741
//! svqact subscribe --addr 127.0.0.1:7741 --sql "SELECT … WHERE act='…'" --events 3
//! svqact explain --sql "SELECT …"
//! svqact sim     --scenario serve_mem --seed 42 --faults drop-conn
//! svqact sim     --schedules 200 --scenario all
//! svqact sim     --corpus true
//! svqact labels  objects|actions
//! ```
//!
//! Scenes are synthetic scenarios (the simulated substrate of this
//! reproduction, see DESIGN.md); catalogs are §4.2 ingestion outputs and
//! can be queried any number of times.

#![forbid(unsafe_code)]

mod args;
mod commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&argv) {
        eprintln!("svqact: {e}");
        std::process::exit(1);
    }
}

fn run(argv: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let Some(command) = argv.first() else {
        print_usage();
        return Ok(());
    };
    let rest = &argv[1..];
    let (command, known): (fn(&args::Flags) -> commands::CliResult, _) = match command.as_str() {
        "synth" => (commands::synth, commands::SYNTH_FLAGS),
        "ingest" => (commands::ingest, commands::INGEST_FLAGS),
        "query" => (commands::query, commands::QUERY_FLAGS),
        "mux" => (commands::mux, commands::MUX_FLAGS),
        "serve" => (commands::serve, commands::SERVE_FLAGS),
        "route" => (commands::route, commands::ROUTE_FLAGS),
        "request" => (commands::request, commands::REQUEST_FLAGS),
        "subscribe" => (commands::subscribe, commands::SUBSCRIBE_FLAGS),
        "explain" => (commands::explain, commands::EXPLAIN_FLAGS),
        "sim" => (commands::sim, commands::SIM_FLAGS),
        "labels" => return commands::labels(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            return Ok(());
        }
        other => return Err(format!("unknown command {other:?}; try `svqact help`").into()),
    };
    command(&args::Flags::parse(rest, known)?)
}

fn print_usage() {
    eprintln!(
        "svqact — declarative action queries over (simulated) videos\n\n\
         commands:\n\
         \u{20}  synth   --minutes M --action NAME [--objects a,b] [--seed N] \
         [--occupancy F] --out scene.json\n\
         \u{20}  ingest  --scene scene.json [--models accurate|fast|ideal] --out catalog.svqc\n\
         \u{20}  ingest  --scenes a.json,b.json [--workers N] [--sink spill|mem] \
         [--models …] --out DIR\n\
         \u{20}  query   (--catalog catalog.svqc | --scene scene.json) --sql STATEMENT\n\
         \u{20}  mux     --sql \"STMT[; STMT…]\" [--streams K] [--workers N] \
         [--minutes M] [--seed N] [--models …] [--action NAME] [--objects a,b] \
         [--metrics-every SECS]\n\
         \u{20}  serve   [--catalog FILE|DIR] [--scene scene.json | --scenes a,b,…] \
         [--addr HOST:PORT] [--addr-file PATH] [--max-conns N] \
         [--read-timeout-ms MS] [--write-timeout-ms MS] [--drain-timeout-ms MS] \
         [--workers N] [--pipeline-depth N] [--catalog-cache N] \
         [--shard-index I --shard-count N] [--source KEY=VAL,…] [--metrics-every SECS]\n\
         \u{20}  route   --shards HOST:PORT,… [--addr HOST:PORT] [--addr-file PATH] \
         [--max-conns N] [--pipeline-depth N] [--upstream-timeout-ms MS] \
         [--connect-attempts N] [--metrics-every SECS]\n\
         \u{20}  request --addr HOST:PORT [--kind query|stream|stats|shutdown] \
         [--sql STATEMENT] [--video ID|all] [--repeat N] [--retries N] \
         [--retry-backoff-ms MS] [--timeout-ms MS]\n\
         \u{20}  subscribe --addr HOST:PORT --sql STATEMENT [--video ID] \
         [--drift-every N] [--events N] [--timeout-ms MS]\n\
         \u{20}  explain --sql STATEMENT\n\
         \u{20}  sim     --scenario NAME [--seed N] [--size N] [--faults a,b|none|all] \
         [--trace true] | --schedules K [--scenario NAME|all] [--seed BASE] | \
         --corpus true\n\
         \u{20}  labels  objects|actions"
    );
}

#[cfg(test)]
mod tests {
    use super::run;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// A flag the command does not read fails the whole invocation with
    /// the flag named (`main` exits 1), before the command does any work:
    /// a typo must not fall back silently to the default it meant to
    /// override.
    #[test]
    fn commands_reject_flags_they_do_not_read() {
        let err = run(&argv(&["serve", "--scene", "s.json", "--max-conn", "8"])).unwrap_err();
        assert!(err.to_string().contains("unknown flag --max-conn"), "{err}");
        // `serve`'s admission limit means nothing to `mux`.
        let err = run(&argv(&[
            "mux",
            "--max-conns",
            "4",
            "--sql",
            "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) WHERE act='jumping'",
        ]))
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown flag --max-conns"),
            "{err}"
        );
    }
}

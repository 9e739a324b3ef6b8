//! The standalone worker process: connects to a broker's TCP listener,
//! registers service slots, and serves value-protocol compute until the
//! broker says Bye or the connection is lost for good. Run one binary
//! per simulated machine; `kill -9` it freely — the broker's recovery
//! machinery, not this process, owns survivability.
//!
//! ```text
//! gozer-worker --broker 127.0.0.1:7400 --name w0 --node 100 \
//!              --service Compute:2 [--seed 7] [--chaos] [--max-attempts 40]
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use bluebox::{TcpWorker, WorkerConfig};
use gozer_worker::ComputeHandler;

fn usage(err: &str) -> ExitCode {
    eprintln!("gozer-worker: {err}");
    eprintln!(
        "usage: gozer-worker --broker HOST:PORT --service NAME:COUNT \
         [--service NAME:COUNT ...] [--name NAME] [--node N] [--seed N] \
         [--max-attempts N] [--chaos]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut broker = None;
    let mut name = "worker".to_string();
    let mut node = 100u32;
    let mut seed = 0u64;
    let mut max_attempts = 40u32;
    let mut chaos = false;
    let mut services: Vec<(String, u32)> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        let result: Result<(), String> = match arg.as_str() {
            "--broker" => value("--broker").map(|v| broker = Some(v)),
            "--name" => value("--name").map(|v| name = v),
            "--node" => value("--node")
                .and_then(|v| v.parse().map_err(|e| format!("--node: {e}")))
                .map(|v| node = v),
            "--seed" => value("--seed")
                .and_then(|v| v.parse().map_err(|e| format!("--seed: {e}")))
                .map(|v| seed = v),
            "--max-attempts" => value("--max-attempts")
                .and_then(|v| v.parse().map_err(|e| format!("--max-attempts: {e}")))
                .map(|v| max_attempts = v),
            "--chaos" => {
                chaos = true;
                Ok(())
            }
            "--service" => value("--service").and_then(|v| {
                let (svc, count) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--service wants NAME:COUNT, got {v:?}"))?;
                let count: u32 = count
                    .parse()
                    .map_err(|e| format!("--service {v:?}: bad count: {e}"))?;
                services.push((svc.to_string(), count));
                Ok(())
            }),
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(e) = result {
            return usage(&e);
        }
    }

    let Some(broker) = broker else {
        return usage("--broker is required");
    };
    if services.is_empty() {
        return usage("at least one --service NAME:COUNT is required");
    }

    let config = WorkerConfig {
        broker,
        name,
        node,
        services,
        seed,
        max_attempts,
    };
    // Blocks until the broker says Bye or reconnection gives up.
    TcpWorker::run(config, Arc::new(ComputeHandler::new(chaos)));
    ExitCode::SUCCESS
}

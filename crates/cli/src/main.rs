//! `osoffload` — command-line front end for the simulator and the
//! experiment registry that regenerates the paper's evaluation.
//!
//! See `osoffload help` (or [`args::usage`]) for the interface.

mod args;
mod commands;
mod experiments;
mod harness;
mod inspect;
mod serve;

use args::Command;
use experiments::Run;
use harness::Executor;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match args::parse(&argv) {
        Ok(Command::Help) => {
            print!("{}", args::usage());
            0
        }
        Ok(Command::List) => commands::list(),
        Ok(Command::Experiment {
            experiment,
            scale,
            exec,
        }) => {
            match (experiment.run, &exec) {
                (Run::Plan(run), exec) => run(scale, exec),
                (Run::Direct(run), Executor::Here(opts)) => run(scale, opts),
                (Run::Direct(_), Executor::Daemon(_)) => unreachable!("only plans are served"),
            }
            0
        }
        Ok(Command::Run(a)) => exit_code(commands::run(&a)),
        Ok(Command::Compare(a)) => exit_code(commands::compare(&a)),
        Ok(Command::Sweep(a)) => exit_code(commands::sweep(&a)),
        Ok(Command::Trace(a)) => exit_code(commands::trace(&a)),
        Ok(Command::Inspect(a)) => inspect::inspect(&a),
        Ok(Command::Serve(a)) => serve::serve(a),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run 'osoffload help' for usage");
            2
        }
    };
    std::process::exit(code);
}

/// A configuration that `SystemConfig::validate` refuses, or a flag
/// value a subcommand cannot honour, is a usage error like a bad flag:
/// exit 2 with its message, not a panic.
fn exit_code(result: Result<(), impl std::fmt::Display>) -> i32 {
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

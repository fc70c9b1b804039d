//! Out-of-process, open-loop benchmark of the complex-object server.
//!
//! ```text
//! objbench --workload <read_point|closure_eval|write_mix|all> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! objbench compare <a.json> <b.json>
//! objbench serve [--cpus <list>]            (started by the benchmark itself)
//! ```

mod compare;
mod gen;
mod json;
mod replay;
mod run;
mod serve;
mod sys;
mod workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => serve::main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => run::main(&args),
    };
    std::process::exit(code);
}

//! Command-line entry point; see the library docs for the usage.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = bingo_benchmark::Settings::command_line();
    let mut out = std::io::stdout().lock();
    let status = bingo_benchmark::main_with(&args, &settings, &mut out);
    ExitCode::from(status as u8)
}

//! `banger` — the environment as a command-line tool.
//!
//! Operates on `.bang` project documents (see `banger::document`).
//! Every subcommand lives in the library's command layer
//! ([`banger::cli`]; `banger help` lists them with their options). This
//! binary parses the command line into a request, answers it locally or
//! through `--connect PATH` from a running `banger serve` daemon
//! (locally when none answers), and prints the answer with the one
//! printer both modes share.
//!
//! Input values: scalars (`-i a=2.5`) or arrays (`-i v=[1,2,3]`).
//!
//! Exit codes: 0 success (warnings allowed), 1 operational failure or
//! error-severity diagnostics, 2 usage errors (unknown subcommand, missing
//! arguments).

use banger::cli;
use banger::serve::{default_socket_path, Request, Response};
use std::path::{Path, PathBuf};
use std::process::exit;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--connect PATH` is a global flag: serve this invocation from a
    // running daemon, falling back to local execution when none answers.
    let connect = extract_connect(&mut args);
    if args.first().map(String::as_str) == Some("serve") {
        exit(cmd_serve(&args[1..]));
    }
    let resp = match cli::parse(&args) {
        Err(answer) => answer,
        Ok(req) if cli::ADMIN.contains(&req.cmd.as_str()) => {
            // Daemon-admin verbs have no local fallback.
            let socket = connect.map_or_else(default_socket_path, PathBuf::from);
            ask(&socket, &req).unwrap_or_else(|e| {
                Response::failure(format!("cannot connect to {}: {e}", socket.display()))
            })
        }
        Ok(req) => match connect {
            None => cli::local(&req),
            Some(sock) => ask(Path::new(&sock), &req).unwrap_or_else(|e| {
                let mut resp = cli::local(&req);
                let note = format!("banger: no daemon at {sock} ({e}); running locally\n");
                resp.notes.insert_str(0, &note);
                resp
            }),
        },
    };
    exit(cli::print(&resp));
}

/// Removes `--connect PATH` from the argument list and returns the
/// socket path, wherever the flag appears.
fn extract_connect(args: &mut Vec<String>) -> Option<String> {
    let i = args.iter().position(|a| a == "--connect")?;
    if i + 1 >= args.len() {
        let usage = Response::failure("--connect needs a socket path").with_exit(2);
        exit(cli::print(&usage));
    }
    let path = args.remove(i + 1);
    args.remove(i);
    Some(path)
}

/// Sends one request to the daemon at `socket`. `Err` means no daemon
/// answered the connection. An answer carrying a file the request did
/// not name ([`cli::outputs`]) is refused whole, so whatever answers on
/// the socket cannot make this process write anywhere else.
#[cfg(unix)]
fn ask(socket: &Path, req: &Request) -> std::io::Result<Response> {
    let mut client = banger::serve::Client::connect(socket)?;
    let resp = client
        .request(req)
        .unwrap_or_else(|e| Response::failure(format!("daemon request failed: {e}")));
    let named = cli::outputs(req);
    Ok(match resp.files.iter().find(|(p, _)| !named.contains(p)) {
        Some((path, _)) => Response::failure(format!(
            "daemon answered with a file the request did not name ({path}); nothing written"
        )),
        None => resp,
    })
}

#[cfg(not(unix))]
fn ask(_socket: &Path, _req: &Request) -> std::io::Result<Response> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "the daemon requires a Unix platform",
    ))
}

/// `banger serve [--socket PATH]` — run the project daemon in the
/// foreground until SIGINT/SIGTERM or a `shutdown` request.
#[cfg(unix)]
fn cmd_serve(rest: &[String]) -> i32 {
    let socket = rest
        .windows(2)
        .find(|w| w[0] == "--socket")
        .map(|w| PathBuf::from(&w[1]))
        .unwrap_or_else(default_socket_path);
    banger::serve::server::install_signal_handlers();
    let server = match banger::serve::Server::bind(&socket) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("banger: cannot bind {}: {e}", socket.display());
            return 1;
        }
    };
    eprintln!("banger serve: listening on {}", socket.display());
    match server.serve() {
        Ok(()) => {
            eprintln!("banger serve: shut down cleanly");
            0
        }
        Err(e) => {
            eprintln!("banger serve: {e}");
            1
        }
    }
}

#[cfg(not(unix))]
fn cmd_serve(_rest: &[String]) -> i32 {
    cli::print(&Response::failure("serve requires a Unix platform"))
}

//! The three lint passes. Each exposes `NAME` (the `lint:allow` key) and
//! `run(&Workspace, &Engine) -> Vec<Diagnostic>`.

pub mod delta;
pub mod locks;
pub mod reactor;

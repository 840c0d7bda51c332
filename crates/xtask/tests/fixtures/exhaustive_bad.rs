//! Known-bad fixture for the wildcard guard on protocol-enum consumers:
//! `dispatch` carries the same fn-level deny as `System::handle` and
//! `ServerState::handle_message`, and its match hides `Event::Heal` and
//! `Event::Cut` behind a `_ =>` arm. CI compiles this file with
//! `clippy-driver --edition 2021 --crate-type lib` and fails unless the
//! compile fails with `clippy::wildcard_enum_match_arm` reported. (A
//! wildcard hiding a single variant is `match_wildcard_for_single_variants`
//! instead, which the workspace's pedantic level reports.)

pub enum Event {
    Inject,
    Deliver { at: f64 },
    Heal,
    Cut,
}

#[deny(clippy::wildcard_enum_match_arm)]
pub fn dispatch(e: &Event) -> u32 {
    match e {
        Event::Inject => 1,
        Event::Deliver { .. } => 2,
        _ => 0, // the wildcard that swallows Heal and Cut
    }
}

//! Calls into crate `a`; a re-export is not a call.

pub use a::only_reexported;
pub use a::renamed as alias;

fn calls() {
    let _ = (a::series(), a::Seen);
    a::called();
    alias();
}

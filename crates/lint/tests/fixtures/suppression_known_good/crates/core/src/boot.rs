//! A live suppression: the allow below still silences a real finding,
//! so the unused-suppression check must stay quiet about it.

fn load_config(path: &str) -> String {
    // wsd-lint: allow(raw-file-io): startup config read, not durable state
    std::fs::read_to_string(path).unwrap_or_default()
}

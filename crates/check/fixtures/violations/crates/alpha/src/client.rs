//! Fixture client seeding the unwrap ratchet.

pub fn exercise(c: &Client) {
    // Library-code unwrap with no allowlist entry: unwrap-in-library.
    c.last_response().unwrap();
}

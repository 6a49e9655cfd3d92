package profile

// DecodeCanonical exposes decodeCanonical to the external test package,
// which profiles the suite through internal/core (an importer of this
// package).
var DecodeCanonical = decodeCanonical

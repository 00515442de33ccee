package obs

import "net/http"

// Ledger-as-response helpers: the run ledger is dbpserved's response body,
// so serving one must go through the same canonical encoder as SaveLedger —
// a served ledger and a `dbpsim -json` file for the same run are then
// byte-comparable, and both round-trip through UnmarshalLedger.

// LedgerContentType is the media type served for run-ledger bodies.
const LedgerContentType = "application/json; charset=utf-8"

// WriteLedgerBytes writes an already-encoded ledger document (for
// content-addressed caches that store the canonical bytes: serving the
// cached encoding keeps responses bit-identical across hits).
func WriteLedgerBytes(w http.ResponseWriter, status int, data []byte) {
	w.Header().Set("Content-Type", LedgerContentType)
	w.WriteHeader(status)
	_, _ = w.Write(data)
}

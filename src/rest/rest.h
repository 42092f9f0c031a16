// The MUSIC REST front end (§VI, Fig. 1): MUSIC "is provided ... as a
// multi-site REST web service".
//
// RestGateway translates JSON request bodies into Table I operations via
// the shared api::ClientApi seam and formats JSON replies, mirroring the
// ONAP deployment where non-JVM services drive MUSIC over HTTP.  Request
// shape:
//
//   { "op":  "createLockRef" | "acquireLock" | "criticalPut" |
//            "criticalGet"   | "criticalDelete" | "releaseLock" |
//            "forcedRelease" | "put" | "get" | "getAllKeys" | "batch" |
//            "status",
//     "key": "...", "lockRef": 7, "value": "..." }
//
// Reply: { "status": "Ok"|..., "code": "ok"|..., "lockRef": n?,
//          "value": "..."?, "keys": []? }
//
// Every reply carries a stable machine-readable "code" drawn from ONE
// OpStatus -> (HTTP status, code) table (error_mapping below; documented in
// docs/API.md).  The real-socket gateway maps replies to HTTP statuses with
// http_status_for_code — no second switch anywhere.
//
// "batch" ships an ordered vector of critical ops under one lockRef (one
// wire request, coalesced quorum rounds server-side):
//
//   { "op": "batch", "key": "lockKey", "lockRef": 7,
//     "ops": [ { "op": "put", "key": "a", "value": "1" },
//              { "op": "get" },             // key defaults to the lock key
//              { "op": "delete", "key": "b" } ] }
//
// Reply: { "status": <roll-up>, "results": [ { "status": ..., "value"? }, … ] }
//
// A gateway binds any api::ClientApi — a plain core::MusicClient (one MUSIC
// group) or a cluster::Client (sharded deployment; every verb then routes
// through the ShardMap with the WrongShard retry discipline, and a "batch"
// whose sub-op keys leave the lock key's shard answers WrongShard for every
// entry without shipping).  "status"
// (keyless) reports the deployment shape via the interface's shard_count /
// map_epoch.
//
// Malformed bodies get {"status":"BadRequest","code":"bad_request",...}
// without touching the store.
#pragma once

#include <string>
#include <string_view>

#include "api/client_api.h"
#include "rest/json.h"

namespace music::rest {

/// One row of the REST error table: how an OpStatus crosses the HTTP
/// boundary.  `code` is the stable machine-readable identifier clients
/// switch on (the human-readable "status" string is for eyes and logs).
struct ErrorMapping {
  OpStatus status;
  int http_status;
  std::string_view code;
};

/// The single OpStatus -> (HTTP status, JSON error code) mapping, shared by
/// every reply path (docs/API.md lists it verbatim).
const ErrorMapping& error_mapping(OpStatus s);

/// Reply code for syntactically invalid requests (no OpStatus involved).
inline constexpr std::string_view kBadRequestCode = "bad_request";

/// HTTP status for a reply produced by RestGateway::handle, looked up by
/// its "code" field (bad_request included).  Unknown codes map to 500.
int http_status_for_code(std::string_view code);

/// JSON-over-HTTP gateway bound to any api::ClientApi implementation.
class RestGateway {
 public:
  explicit RestGateway(api::ClientApi& client) : client_(client) {}

  /// Handles one request body; returns the reply body.  Never throws;
  /// syntactic problems come back as status "BadRequest".
  sim::Task<std::string> handle(std::string body);

  /// Typed layer used by handle() (exposed for tests): Json in, Json out.
  sim::Task<Json> handle_json(Json request);

 private:
  api::ClientApi& client_;
};

}  // namespace music::rest

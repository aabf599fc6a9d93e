// Handler adapters that put the three engines behind a NetServer.
//
// Each adapter maps a request frame to the engine's blocking entry point and
// shapes the outcome into a reply frame. The engines' entry points join the
// enclosing semantic interval (the one the NetServer anchored at socket
// readability), so the wire hop, the dispatch-queue wait and the engine's
// internal phases all land in ONE interval per request — which is what lets
// the variance tree rank "net:queue_wait" against the engine's own factors.
#ifndef SRC_NET_FRONTEND_H_
#define SRC_NET_FRONTEND_H_

#include "src/net/server.h"

namespace minidb {
class Engine;
}
namespace minipg {
class PgEngine;
}
namespace httpd {
class HttpServer;
}

namespace net {

// kTxn -> minidb::Engine::Execute. Non-txn requests get kError/kBadType.
NetServer::Handler MakeMinidbHandler(minidb::Engine* engine);

// kTxn -> minipg::Engine::Execute (commit/abort only; minipg reports no trx
// id or error detail over the wire).
NetServer::Handler MakeMinipgHandler(minipg::PgEngine* engine);

// kHttpGet -> httpd::HttpServer::Serve, on the NetServer worker.
NetServer::Handler MakeHttpdHandler(httpd::HttpServer* server);

}  // namespace net

#endif  // SRC_NET_FRONTEND_H_

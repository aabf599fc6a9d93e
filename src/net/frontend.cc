#include "src/net/frontend.h"

#include <memory>
#include <utility>

#include "src/httpd/server.h"
#include "src/minidb/engine.h"
#include "src/minipg/engine.h"

namespace net {

namespace {

Frame BadType(const Frame& request) {
  Frame reply;
  reply.type = MsgType::kError;
  reply.request_id = request.request_id;
  reply.error = static_cast<uint8_t>(WireError::kBadType);
  return reply;
}

Frame TxnReply(const minidb::TxnOutcome& outcome) {
  Frame reply;
  reply.type = MsgType::kTxnReply;
  reply.status = outcome.committed ? 0 : 1;
  reply.error = static_cast<uint8_t>(outcome.error);
  reply.value = outcome.trx_id;
  return reply;
}

}  // namespace

NetServer::Handler MakeMinidbHandler(minidb::Engine* engine) {
  return [engine](const Frame& request) {
    if (request.type != MsgType::kTxn) {
      return BadType(request);
    }
    Responder responder = NetServer::TakeResponder();
    if (!responder) {
      return TxnReply(engine->Execute(request.txn));  // not on a worker
    }
    // The worker returns once the commit is registered; the outcome, and
    // with it the reply, comes from whichever thread completes the commit.
    auto reply = std::make_shared<Responder>(std::move(responder));
    engine->ExecutePipelined(request.txn,
                             [reply](const minidb::TxnOutcome& outcome) {
                               reply->Send(TxnReply(outcome));
                             });
    return Frame{};  // ignored: the responder answers
  };
}

NetServer::Handler MakeMinipgHandler(minipg::PgEngine* engine) {
  return [engine](const Frame& request) {
    if (request.type != MsgType::kTxn) {
      return BadType(request);
    }
    const bool committed = engine->Execute(request.txn);
    Frame reply;
    reply.type = MsgType::kTxnReply;
    reply.status = committed ? 0 : 1;
    reply.error = static_cast<uint8_t>(minidb::TxnError::kNone);
    reply.value = 0;
    return reply;
  };
}

NetServer::Handler MakeHttpdHandler(httpd::HttpServer* server) {
  return [server](const Frame& request) {
    if (request.type != MsgType::kHttpGet) {
      return BadType(request);
    }
    server->Serve(request.file_id);
    Frame reply;
    reply.type = MsgType::kHttpReply;  // status 0: 200 OK
    return reply;
  };
}

}  // namespace net

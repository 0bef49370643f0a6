//===- support/Status.cpp - Recoverable error reporting -------*- C++ -*-===//

#include "support/Status.h"

namespace systec {

const char *errCodeName(ErrCode C) {
  switch (C) {
  case ErrCode::Ok:
    return "ok";
  case ErrCode::InvalidArgument:
    return "invalid-argument";
  case ErrCode::UnboundTensor:
    return "unbound-tensor";
  case ErrCode::InvalidTensor:
    return "invalid-tensor";
  case ErrCode::InvalidOptions:
    return "invalid-options";
  case ErrCode::Cancelled:
    return "cancelled";
  case ErrCode::DeadlineExceeded:
    return "deadline-exceeded";
  case ErrCode::ResourceExhausted:
    return "resource-exhausted";
  case ErrCode::Internal:
    return "internal";
  }
  return "unknown";
}

std::string Status::str() const {
  if (ok())
    return "ok";
  std::string Out = errCodeName(code());
  for (const std::string &Frame : context()) {
    Out += ": ";
    Out += Frame;
  }
  Out += ": ";
  Out += message();
  return Out;
}

Status Status::clone() const {
  if (ok())
    return success();
  Status S = error(code(), message());
  S.Payload->Context = context();
  return S;
}

} // namespace systec
